/**
 * @file
 * Line Location Table (Section IV-B).
 *
 * One entry per congruence group, recording where each member (slot)
 * of the group currently lives. An entry is a permutation of the
 * locations {0..K-1}: location 0 is the stacked slot, locations 1..K-1
 * are off-chip. For the paper's K = 4 an entry is exactly one byte
 * (four 2-bit fields); this class stores 4 bits per field for
 * generality up to K = 16 while reporting the paper-accurate encoded
 * size separately.
 *
 * The class is purely functional bookkeeping — where the entry is
 * *stored* (SRAM / embedded region of stacked DRAM / co-located LEAD,
 * the LltKind designs) and what latency its lookup costs is CameoOrg's
 * business.
 */

#ifndef CAMEO_CORE_LINE_LOCATION_TABLE_HH
#define CAMEO_CORE_LINE_LOCATION_TABLE_HH

#include <cstdint>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/types.hh"

namespace cameo
{

/** Where the LLT lives, and so what a lookup costs (Figure 6). */
enum class LltKind
{
    Ideal,     ///< Zero-latency, zero-storage oracle LLT.
    Embedded,  ///< LLT in a reserved stacked region; serial lookup.
    CoLocated, ///< LLT entry co-located with data (LEAD, Figure 7).
};

/** Printable name of an LLT design. */
const char *lltKindName(LltKind kind);

/** Per-group location bookkeeping for every line in the system. */
class LineLocationTable
{
  public:
    /**
     * @param num_groups Number of congruence groups (stacked lines).
     * @param group_size Members per group (K; 4 in the paper).
     *
     * Entries start as the identity mapping: slot i at location i.
     */
    LineLocationTable(std::uint64_t num_groups, std::uint32_t group_size);

    LineLocationTable(const LineLocationTable &) = delete;
    LineLocationTable &operator=(const LineLocationTable &) = delete;

    /** Current location of @p slot in @p group. */
    std::uint32_t locationOf(std::uint64_t group, std::uint32_t slot) const;

    /** Which slot's line currently sits at @p loc in @p group. */
    std::uint32_t slotAt(std::uint64_t group, std::uint32_t loc) const;

    /**
     * Swap the locations of two slots in a group (the LLT update that
     * accompanies every CAMEO line swap).
     */
    void swapSlots(std::uint64_t group, std::uint32_t slot_a,
                   std::uint32_t slot_b);

    /** True if the entry for @p group is a valid permutation. */
    bool verifyGroup(std::uint64_t group) const;

    /**
     * Fault injection: overwrite @p slot's location field with @p loc,
     * bypassing the swap discipline (and therefore able to break the
     * permutation invariant). Exists so the audit tests can prove that
     * LltAuditor catches corruption; production code must never call
     * it.
     */
    void poke(std::uint64_t group, std::uint32_t slot, std::uint32_t loc);

    std::uint64_t numGroups() const { return numGroups_; }
    std::uint32_t groupSize() const { return groupSize_; }

    /**
     * Paper-accurate encoded size of the whole table in bytes: K fields
     * of ceil(log2(K)) bits per group (64MB for the 16GB system).
     */
    std::uint64_t encodedBytes() const;

    /** Number of groups whose mapping differs from identity. */
    std::uint64_t permutedGroups() const;

    /**
     * Checkpoint the full location array. Geometry (group count and K)
     * is structural; restore() verifies it and re-audits every restored
     * entry against the permutation invariant.
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    std::uint64_t index(std::uint64_t group, std::uint32_t slot) const
    {
        return group * groupSize_ + slot;
    }

    std::uint64_t numGroups_;
    std::uint32_t groupSize_;

    /** location of each slot, 4 bits used per entry, stored bytewise. */
    std::vector<std::uint8_t> loc_;
};

} // namespace cameo

#endif // CAMEO_CORE_LINE_LOCATION_TABLE_HH
