/**
 * @file
 * Oracle-heat placement, extracted from the old TlmOracleOrg (Section
 * VI-D): the OS has oracular knowledge of page access frequencies and
 * places frequently used pages in stacked memory up front, avoiding
 * dynamic-migration overheads entirely.
 *
 * The oracle's knowledge comes from a profiling pass: the deterministic
 * workload generators are re-run standalone (profilePageHeat) and the
 * resulting per-(core, vpage) heat map is injected with setPageHeat
 * before simulation. When a virtual page becomes resident, its heat
 * decides whether it displaces the coldest currently-stacked page; the
 * remap change costs nothing, modelling ideal placement.
 */

#ifndef CAMEO_ORGS_POLICY_ORACLE_HEAT_PLACEMENT_HH
#define CAMEO_ORGS_POLICY_ORACLE_HEAT_PLACEMENT_HH

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "orgs/policy/placement_policy.hh"

namespace cameo
{

/** Oracular frequency-directed page placement. */
class OracleHeatPlacement final : public PagePlacementPolicy
{
  public:
    OracleHeatPlacement(std::uint64_t stacked_pages,
                        std::uint64_t total_pages);

    const char *policyName() const override { return "oracle-heat"; }

    /** Demand accesses carry no information the oracle needs. */
    void onAccess(PlacementContext &ctx, Tick when, PageAddr phys_page,
                  std::uint64_t device_page, bool is_write) override;

    bool setPageHeat(PageHeatMap heat) override;

    void onPageMapped(PlacementContext &ctx, std::uint32_t frame,
                      std::uint32_t core, PageAddr vpage) override;

    /**
     * Checkpointable: per-frame heat, the coldest-heap's exact array
     * layout (ties pop in layout order, so the heap must be restored
     * verbatim, not re-heapified), and the injected heat map.
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    std::uint64_t stackedPages_;
    std::uint64_t totalPages_;

    /** Heat of the OS-physical page currently at each frame. */
    std::vector<std::uint64_t> physHeat_;

    /** Min-heap of (heat, phys page) for stacked residents, with lazy
     *  invalidation (entries whose heat no longer matches are stale). */
    using HeapEntry = std::pair<std::uint64_t, PageAddr>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>> coldest_;

    PageHeatMap heat_;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_ORACLE_HEAT_PLACEMENT_HH
