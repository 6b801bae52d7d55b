/**
 * @file
 * PagePlacementPolicy: the composable answer to "should this access
 * trigger a migration/swap, and of what victim" (DESIGN.md §14).
 *
 * A page placement policy observes every routed access through
 * onAccess() and drives migrations through the PlacementContext its
 * host ComposedOrg passes in: the context exposes the geometry, the
 * mapping's translation, and billPageSwap() so the policy never
 * touches DRAM modules directly. Policies are independently
 * Checkpointable and need no notion of fidelity (DESIGN.md §13): a
 * swap billed to untimed modules costs nothing, so one routine makes
 * the same state updates and RNG draws in either phase.
 */

#ifndef CAMEO_ORGS_POLICY_PLACEMENT_POLICY_HH
#define CAMEO_ORGS_POLICY_PLACEMENT_POLICY_HH

#include <cstdint>

#include "orgs/policy/page_heat.hh"
#include "snapshot/snapshot.hh"
#include "stats/registry.hh"
#include "util/types.hh"

namespace cameo
{

/**
 * What a page placement policy may do to its host organization.
 * Implemented by ComposedOrg; handed to every placement hook so the
 * policy stays constructible (and unit-testable) without an org.
 */
class PlacementContext
{
  public:
    /** Device pages resident in stacked DRAM: [0, stackedPages). */
    virtual std::uint64_t stackedPages() const = 0;

    /** Total device pages across both levels. */
    virtual std::uint64_t totalPages() const = 0;

    /** The mapping policy's current translation. */
    virtual std::uint64_t devicePageOf(PageAddr phys_page) const = 0;
    virtual PageAddr physPageAt(std::uint64_t device_page) const = 0;

    /** Update the mapping after a swap decision. */
    virtual void swapMapping(PageAddr phys_a, PageAddr phys_b) = 0;

    /**
     * Bill the 16KB of DRAM activity of one 4KB page swap and count
     * the migration.
     */
    virtual void billPageSwap(Tick when, std::uint64_t offchip_dev_page,
                              std::uint64_t stacked_dev_page) = 0;

  protected:
    ~PlacementContext() = default;
};

/**
 * Base of every composable placement policy: page-granular placement
 * driven by the ComposedOrg access path.
 */
class PagePlacementPolicy : public Checkpointable
{
  public:
    ~PagePlacementPolicy() override;

    PagePlacementPolicy() = default;
    PagePlacementPolicy(const PagePlacementPolicy &) = delete;
    PagePlacementPolicy &operator=(const PagePlacementPolicy &) = delete;

    /** Stable policy name (the composition table in DESIGN.md §14). */
    virtual const char *policyName() const = 0;

    /** Register policy-owned statistics (default: none). */
    virtual void registerStats(StatRegistry &registry);

    /**
     * One demand access was routed to @p device_page. The policy may
     * update recency/frequency state and perform swaps through @p ctx.
     */
    virtual void onAccess(PlacementContext &ctx, Tick when,
                          PageAddr phys_page, std::uint64_t device_page,
                          bool is_write) = 0;

    /** A virtual page became resident in @p frame (default: ignore). */
    virtual void onPageMapped(PlacementContext &ctx, std::uint32_t frame,
                              std::uint32_t core, PageAddr vpage);

    /**
     * Inject oracular page heat. Returns false when this policy takes
     * no oracle (the reportable-error path replacing the old
     * assert-only MemoryOrganization::setPageHeat contract).
     */
    virtual bool setPageHeat(PageHeatMap heat);
};

/**
 * Static placement: pages stay where allocation put them (TLM-Static).
 */
class StaticPlacement final : public PagePlacementPolicy
{
  public:
    const char *policyName() const override { return "static"; }

    void onAccess(PlacementContext &ctx, Tick when, PageAddr phys_page,
                  std::uint64_t device_page, bool is_write) override;

    /** Stateless: nothing to checkpoint. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_PLACEMENT_POLICY_HH
