/**
 * @file
 * PagePlacementPolicy base defaults and the stateless StaticPlacement.
 */

#include "orgs/policy/placement_policy.hh"

namespace cameo
{

PagePlacementPolicy::~PagePlacementPolicy() = default;

void
PagePlacementPolicy::registerStats(StatRegistry &registry)
{
    (void)registry;
}

void
PagePlacementPolicy::onPageMapped(PlacementContext &ctx, std::uint32_t frame,
                                  std::uint32_t core, PageAddr vpage)
{
    (void)ctx;
    (void)frame;
    (void)core;
    (void)vpage;
}

bool
PagePlacementPolicy::setPageHeat(PageHeatMap heat)
{
    (void)heat;
    return false;
}

void
StaticPlacement::onAccess(PlacementContext &ctx, Tick when,
                          PageAddr phys_page, std::uint64_t device_page,
                          bool is_write)
{
    (void)ctx;
    (void)when;
    (void)phys_page;
    (void)device_page;
    (void)is_write;
}

void
StaticPlacement::save(SnapshotWriter &w) const
{
    (void)w;
}

void
StaticPlacement::restore(SnapshotReader &r)
{
    (void)r;
}

} // namespace cameo
