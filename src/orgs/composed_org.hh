/**
 * @file
 * ComposedOrg: a two-level organization assembled from one
 * PageMappingPolicy and one PagePlacementPolicy (DESIGN.md §14).
 *
 * This class owns the demand-routing path over the base class's two
 * DRAM modules: translate the OS-physical page through the mapping,
 * service the line from the right module, then let the placement react
 * (possibly swapping pages through the PlacementContext interface this
 * class implements). makeOrganization() builds the TLM family and
 * Banshee as instances of it with different policy pairs.
 */

#ifndef CAMEO_ORGS_COMPOSED_ORG_HH
#define CAMEO_ORGS_COMPOSED_ORG_HH

#include <memory>

#include "orgs/memory_organization.hh"
#include "orgs/policy/mapping_policy.hh"
#include "orgs/policy/placement_policy.hh"

namespace cameo
{

/** Mapping x placement composition over the two-level routing driver. */
class ComposedOrg : public MemoryOrganization, public PlacementContext
{
  public:
    ComposedOrg(const OrgConfig &config, std::string name,
                std::unique_ptr<PageMappingPolicy> mapping,
                std::unique_ptr<PagePlacementPolicy> placement);

    ~ComposedOrg() override;

    Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core) override;

    std::uint64_t visibleBytes() const override
    {
        return stacked_->capacityBytes() + offchip_.capacityBytes();
    }

    void registerStats(StatRegistry &registry) override;

    /** PlacementContext: geometry and mapping access for the policies. */
    std::uint64_t stackedPages() const override { return stackedPages_; }
    std::uint64_t totalPages() const override { return totalPages_; }

    std::uint64_t devicePageOf(PageAddr phys_page) const override
    {
        return mapping_->devicePageOf(phys_page);
    }

    PageAddr physPageAt(std::uint64_t device_page) const override
    {
        return mapping_->physPageAt(device_page);
    }

    void swapMapping(PageAddr phys_a, PageAddr phys_b) override
    {
        mapping_->swapMapping(phys_a, phys_b);
    }

    void billPageSwap(Tick when, std::uint64_t offchip_dev_page,
                      std::uint64_t stacked_dev_page) override;

    /** Page-map events are the placement policy's business. */
    void onPageMapped(std::uint32_t frame, std::uint32_t core,
                      PageAddr vpage) override;

    /** Forwarded to the placement; false when it takes no oracle. */
    bool setPageHeat(PageHeatMap heat) override;

    const Counter &servicedStacked() const { return servicedStacked_; }
    const Counter &pageMigrations() const { return pageMigrations_; }

    PageMappingPolicy &mappingPolicy() { return *mapping_; }
    const PageMappingPolicy &mappingPolicy() const { return *mapping_; }
    PagePlacementPolicy &placementPolicy() { return *placement_; }
    const PagePlacementPolicy &placementPolicy() const
    {
        return *placement_;
    }

    /**
     * Checkpointable: base state (transactions + DRAM modules), then
     * the mapping, then the placement — each policy serializes exactly
     * the bytes its pre-refactor org wrote, keeping golden snapshots
     * byte-identical.
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  protected:
    /** True if @p device_page resides in stacked DRAM. */
    bool inStacked(std::uint64_t device_page) const
    {
        return device_page < stackedPages_;
    }

    /**
     * Service a line of @p device_page from the right module, counting
     * the demand routing.
     */
    Tick routeLine(Tick now, std::uint64_t device_page,
                   std::uint32_t line_in_page, bool is_write);

    std::uint64_t stackedPages_;
    std::uint64_t totalPages_;

    Counter servicedStacked_;
    Counter servicedOffchip_;
    Counter pageMigrations_;

    std::unique_ptr<PageMappingPolicy> mapping_;
    std::unique_ptr<PagePlacementPolicy> placement_;
};

} // namespace cameo

#endif // CAMEO_ORGS_COMPOSED_ORG_HH
