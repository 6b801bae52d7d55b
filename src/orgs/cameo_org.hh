/**
 * @file
 * CameoOrg: the paper's line-swapping memory controller (Sections
 * IV-V) as a memory organization.
 *
 * Responsibilities per L3 miss / writeback:
 *  1. locate the line via the Line Location Table (with the latency
 *     behaviour of the configured LLT design: Ideal, Embedded, or
 *     Co-Located, Figures 6-8);
 *  2. service the access from stacked or off-chip DRAM, using the Line
 *     Location Predictor to overlap off-chip fetches with the LEAD read
 *     when configured (Figure 10);
 *  3. on an off-chip-resident access, swap the line with the group's
 *     stacked resident (writeback + fill through the existing queues)
 *     and update the LLT.
 *
 * Capacity accounting per LLT design (charged against OS-visible
 * bytes, rounded down to whole pages):
 *  - Ideal:     none (theoretical design point);
 *  - Embedded:  the LLT region — one location-table entry per
 *               congruence group, stored in a reserved slice of the
 *               stacked DRAM (64MB for the paper's 16GB system). The
 *               region is modelled as extra stacked device lines above
 *               the data region, so LLT reads/writes contend for real
 *               banks and buses;
 *  - CoLocated: 1/32 of the stacked capacity (one line per 2KB row
 *               funds the 31 location entries, Figure 7); reads and
 *               writes move 80-byte LEAD bursts and the stacked timing
 *               map uses 31 lines per row.
 *
 * CAMEO-Freq (the extension the last paragraph of Section VI-D
 * sketches: "if page frequency information is available, CAMEO can
 * retain lines from only heavily used pages in stacked DRAM") is this
 * class with frequency admission on: epoch-decayed page-access
 * counters gate the swap, and lines of pages that have not yet proven
 * hot are serviced from off-chip memory in place — no swap, no victim
 * write.
 */

#ifndef CAMEO_ORGS_CAMEO_ORG_HH
#define CAMEO_ORGS_CAMEO_ORG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/congruence_group.hh"
#include "core/lead_layout.hh"
#include "core/line_location_predictor.hh"
#include "core/line_location_table.hh"
#include "orgs/memory_organization.hh"

namespace cameo
{

/** The paper's proposal (and its CAMEO-Freq variant). */
class CameoOrg : public MemoryOrganization
{
  public:
    /** CAMEO-Freq: page touches within the decay window that admit
     *  swaps. */
    static constexpr std::uint32_t kHotThreshold = 4;

    /**
     * @param config         Organization configuration.
     * @param freq_admission True builds CAMEO-Freq: swaps are admitted
     *                       only for hot pages (config.freq sets the
     *                       decay epoch).
     */
    explicit CameoOrg(const OrgConfig &config, bool freq_admission = false);

    /**
     * Service one OS-physical line access.
     *
     * At Functional fidelity (DESIGN.md §13) the modules are untimed:
     * the LLT swap decisions (same admission order), LLP prediction +
     * training and serviced/swap counters are unchanged, and only the
     * speculative-fetch squash accounting (wasted / squashed fetches,
     * a property of queue occupancy) is skipped.
     *
     * @param line OS-physical line address (the "Requested Address"
     *             of the paper).
     * @return Data-arrival time for reads; acceptance time for writes;
     *         @p now at Functional fidelity.
     */
    Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core) override;

    std::uint64_t visibleBytes() const override { return visibleBytes_; }

    void registerStats(StatRegistry &registry) override;

    const CameoOrg *cameo() const override { return this; }

    /** Display name for a CAMEO design point, e.g. "CAMEO(CoLocated+LLP)". */
    static std::string variantName(LltKind llt, PredictorKind pred);

    /**
     * Stacked device lines an Embedded LLT reserves for @p data_lines
     * data lines with group size @p group_size.
     */
    static std::uint64_t lltReserveLines(std::uint64_t data_lines,
                                         std::uint32_t group_size);

    /**
     * Exhaustively audit the LLT permutation invariant (Section IV-B:
     * every group's entry is a permutation of its K locations).
     * Violations are reported to the global AuditSink.
     *
     * @return Number of groups violating the invariant (0 = sound).
     */
    std::uint64_t auditLlt() const;

    const LineLocationTable &llt() const { return llt_; }
    const LineLocationPredictor &predictor() const { return predictor_; }
    const CongruenceGroups &groups() const { return groups_; }

    const Counter &servicedStacked() const { return servicedStacked_; }
    const Counter &servicedOffchip() const { return servicedOffchip_; }
    const Counter &swaps() const { return swaps_; }
    const Counter &wastedFetches() const { return wastedFetches_; }
    const Counter &squashedFetches() const { return squashedFetches_; }

    /** Off-chip services that skipped the swap (cold page). */
    const Counter &swapsFiltered() const { return swapsFiltered_; }

    /** Swaps admitted by CAMEO-Freq's hot-page test. */
    const Counter &hotPages() const { return hotPages_; }

    /**
     * Checkpointable: base state, the LLT and predictor tables, then
     * (CAMEO-Freq) the page counters and epoch progress. Counters are
     * registered stats (stats section).
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    /** Stacked device line holding @p group's data. */
    std::uint64_t stackedDataLine(std::uint64_t group) const { return group; }

    /** Stacked device line holding @p group's LLT entry (Embedded). */
    std::uint64_t lltLine(std::uint64_t group) const
    {
        return lltRegionBase_ + group / lltEntriesPerLine_;
    }

    /** Data burst size for stacked accesses (80B LEAD if co-located). */
    std::uint32_t stackedBurst() const
    {
        return lltKind_ == LltKind::CoLocated ? LeadLayout::kLeadBurstBytes
                                              : kLineBytes;
    }

    /**
     * Move the line at (group, slot, loc != 0) into stacked memory,
     * moving the current stacked resident out to @p loc. Updates the
     * LLT and issues the writeback/fill traffic at @p when.
     *
     * @param victim_in_hand True when the stacked resident's data was
     *        already read (Co-Located LEAD read), so no extra stacked
     *        read is needed.
     */
    void swapIn(Tick when, std::uint64_t group, std::uint32_t slot,
                std::uint32_t loc, bool victim_in_hand);

    /** Update a written-back line in place (no swap). */
    Tick writeback(Tick now, std::uint64_t group, std::uint32_t loc);

    /** CAMEO-Freq heat bookkeeping, shared by both fidelities: bump
     *  the page's saturating counter and decay at epoch boundaries. */
    void noteAccess(LineAddr line);

    /** Swap admission: always for CAMEO; hot pages only for CAMEO-Freq
     *  (counts admissions and rejections). */
    bool shouldSwap(std::uint64_t group, std::uint32_t slot);

    /** Demand reads, one routine per LLT design (writes never get here). */
    Tick accessIdeal(Tick now, std::uint64_t group, std::uint32_t slot,
                     std::uint32_t loc);
    Tick accessEmbedded(Tick now, std::uint64_t group, std::uint32_t slot,
                        std::uint32_t loc);
    Tick accessCoLocated(Tick now, std::uint64_t group, std::uint32_t slot,
                         std::uint32_t loc, InstAddr pc, std::uint32_t core);

    LltKind lltKind_;
    CongruenceGroups groups_;
    LineLocationTable llt_;
    LineLocationPredictor predictor_;
    std::uint64_t lltRegionBase_;   ///< First LLT line (Embedded).
    std::uint32_t lltEntriesPerLine_;
    std::uint64_t visibleBytes_;

    Counter servicedStacked_;
    Counter servicedOffchip_;
    Counter swaps_;
    Counter lltLookups_;
    Counter wastedFetches_;
    Counter squashedFetches_;
    Counter swapsFiltered_;

    /** CAMEO-Freq state; pageCount_ stays empty for stock CAMEO. */
    bool freqAdmission_;
    std::vector<std::uint8_t> pageCount_; ///< Saturating, per OS page.
    std::uint64_t epochLength_;
    std::uint64_t accessesThisEpoch_ = 0;
    Counter hotPages_;
};

} // namespace cameo

#endif // CAMEO_ORGS_CAMEO_ORG_HH
