/**
 * @file
 * PTE-cached page mapping for Banshee (Yu et al., MICRO 2017).
 *
 * Banshee tracks stacked-DRAM residency in the page tables instead of
 * hardware remap tables: translation is free when the (per-core,
 * direct-mapped) cached PTE covers the page and costs one off-chip
 * metadata read — a modelled page-walk line — when it does not. Page
 * moves invalidate the cached copies on every core (the TLB-shootdown
 * analogue), which is exactly why Banshee's placement migrates rarely.
 *
 * Cache contents, hit/miss counters and shootdowns never depend on
 * the walk's timing, so an untimed off-chip module (the functional
 * warmup, DESIGN.md §13) leaves them exactly as a timed one would.
 */

#ifndef CAMEO_ORGS_POLICY_PTE_CACHED_MAPPING_HH
#define CAMEO_ORGS_POLICY_PTE_CACHED_MAPPING_HH

#include <cstdint>
#include <vector>

#include "orgs/policy/page_remap_mapping.hh"
#include "orgs/policy/policy_config.hh"

namespace cameo
{

/** Page-remap mapping fronted by per-core cached PTEs. */
class PteCachedPageMapping final : public PageMappingPolicy
{
  public:
    PteCachedPageMapping(std::uint64_t total_pages, std::uint32_t num_cores,
                         const BansheePolicyConfig &config);

    const char *policyName() const override { return "pte-cached-remap"; }

    std::uint64_t devicePageOf(PageAddr phys_page) const override
    {
        return table_.devicePageOf(phys_page);
    }

    PageAddr physPageAt(std::uint64_t device_page) const override
    {
        return table_.physPageAt(device_page);
    }

    /** Remap + shoot down every core's cached PTE for both pages. */
    void swapMapping(PageAddr phys_a, PageAddr phys_b) override;

    /**
     * PTE-cache lookup for @p phys_page on @p core. A hit costs
     * nothing; a miss installs the entry and bills one off-chip
     * page-walk line read, returning the walk's completion tick as the
     * earliest start for the data access.
     */
    Tick beginAccess(Tick now, PageAddr phys_page, std::uint32_t core,
                     DramModule &offchip) override;

    void registerStats(StatRegistry &registry) override;

    const Counter &pteHits() const { return pteHits_; }
    const Counter &pteMisses() const { return pteMisses_; }
    const Counter &pteShootdowns() const { return pteShootdowns_; }

    /** Checkpointable: the remap table + every core's cached PTEs. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    std::uint64_t slotOf(std::uint32_t core, PageAddr phys_page) const
    {
        return std::uint64_t{core} * entries_ +
               (phys_page & (entries_ - 1));
    }

    /** Drop every core's cached PTE for @p phys_page. */
    void invalidate(PageAddr phys_page);

    PageRemapMapping table_;
    std::uint32_t numCores_;
    std::uint32_t entries_; ///< Per-core slots (power of two).

    /** Direct-mapped cached PTEs: phys_page + 1, 0 = invalid. */
    std::vector<std::uint64_t> slots_;

    Counter pteHits_;
    Counter pteMisses_;
    Counter pteShootdowns_;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_PTE_CACHED_MAPPING_HH
