/**
 * @file
 * PageMappingPolicy base defaults and the stateless IdentityMapping.
 */

#include "orgs/policy/mapping_policy.hh"

#include <cassert>

namespace cameo
{

PageMappingPolicy::~PageMappingPolicy() = default;

void
PageMappingPolicy::registerStats(StatRegistry &registry)
{
    (void)registry;
}

Tick
PageMappingPolicy::beginAccess(Tick now, PageAddr phys_page,
                               std::uint32_t core, DramModule &offchip)
{
    (void)phys_page;
    (void)core;
    (void)offchip;
    return now;
}

void
IdentityMapping::swapMapping(PageAddr phys_a, PageAddr phys_b)
{
    (void)phys_a;
    (void)phys_b;
    assert(false && "identity mapping cannot remap pages");
}

void
IdentityMapping::save(SnapshotWriter &w) const
{
    (void)w;
}

void
IdentityMapping::restore(SnapshotReader &r)
{
    (void)r;
}

} // namespace cameo
