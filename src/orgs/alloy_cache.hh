/**
 * @file
 * Alloy Cache organization (Qureshi & Loh, MICRO 2012) — the paper's
 * state-of-the-art hardware DRAM-cache comparison point.
 *
 * The stacked DRAM is a direct-mapped, line-granularity cache whose tag
 * is co-located with the data ("TAD": Tag And Data). A 2KB row holds 28
 * TADs of 72 bytes; a TAD access bursts 80 bytes on the 16-byte stacked
 * bus. A per-core, instruction-indexed Memory Access Predictor (MAP-I
 * flavour) decides between serial (cache first) and parallel (cache +
 * memory) access, trading bandwidth for latency exactly as the LLP does
 * for CAMEO.
 *
 * The stacked DRAM is *not* part of the OS-visible space: visibleBytes
 * is the off-chip capacity only, which is why Capacity-Limited
 * workloads see little benefit (Figure 2).
 */

#ifndef CAMEO_ORGS_ALLOY_CACHE_HH
#define CAMEO_ORGS_ALLOY_CACHE_HH

#include <vector>

#include "orgs/memory_organization.hh"

namespace cameo
{

/** Direct-mapped DRAM cache with TAD bursts and a MAP-I predictor. */
class AlloyCacheOrg : public MemoryOrganization
{
  public:
    /** Lines of TAD that fit per 2KB row (72B each). */
    static constexpr std::uint32_t kTadsPerRow = 28;

    /** Burst bytes for one TAD (72B rounded to 5 beats x 16B). */
    static constexpr std::uint32_t kTadBurstBytes = 80;

    /**
     * @param config        Shared organization config.
     * @param backing_bytes Capacity of the backing (off-chip) memory;
     *                      normally config.offchipBytes, but DoubleUse
     *                      passes stacked+offchip.
     * @param name          Organization display name.
     */
    AlloyCacheOrg(const OrgConfig &config, std::uint64_t backing_bytes,
                  std::string name = "Cache");

    Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core) override;

    void registerStats(StatRegistry &registry) override;

    /** One direct-mapped set: the resident line's tag and state. */
    struct TagEntry
    {
        LineAddr tag = 0;
        bool valid = false;
        bool dirty = false;

        friend bool operator==(const TagEntry &, const TagEntry &) = default;
    };

    std::uint64_t numSets() const { return tags_.size(); }

    /** The TAD tag array, indexed by set (line % numSets()). */
    const std::vector<TagEntry> &tags() const { return tags_; }

    /** Hit fraction among demand reads so far. */
    double hitRate() const;

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }

    /**
     * Checkpointable: base state + the TAD tag array and the MAP-I
     * counter tables. The set count is structural and verified.
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    /** MAP-I: predict whether @p pc's access will hit the cache. */
    bool predictHit(std::uint32_t core, InstAddr pc) const;
    void trainPredictor(std::uint32_t core, InstAddr pc, bool hit);
    std::size_t mapIndex(std::uint32_t core, InstAddr pc) const;

    /** Direct-mapped TAD tags, one per set (co-located with the data
     *  in the stacked row). */
    std::vector<TagEntry> tags_;

    /** Per-core 3-bit saturating hit counters, 256 entries each. */
    static constexpr std::uint32_t kMapEntries = 256;
    static constexpr std::uint8_t kMapMax = 7;
    static constexpr std::uint8_t kMapThreshold = 4;
    std::vector<std::uint8_t> map_;

    Counter hits_;
    Counter misses_;
    Counter mapCorrect_;
    Counter mapWrong_;
    Counter wastedFetches_;
};

} // namespace cameo

#endif // CAMEO_ORGS_ALLOY_CACHE_HH
