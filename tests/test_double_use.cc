/**
 * @file
 * Dedicated tests for DoubleUse, the paper's unrealizable upper bound
 * (Section II-D): an Alloy-style cache whose backing memory is
 * magically enlarged by the stacked capacity. The suite pins the three
 * properties that make it the bound — the OS sees stacked + off-chip
 * bytes, capacity-limited workloads fault less than under a pure
 * cache, and functional-fidelity accesses track the detailed state
 * exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "orgs/alloy_cache.hh"
#include "orgs/memory_organization.hh"
#include "system/config.hh"
#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

OrgConfig
smallConfig()
{
    OrgConfig c;
    c.stackedBytes = 1 << 20;
    c.offchipBytes = 3 << 20;
    c.numCores = 2;
    return c;
}

TEST(DoubleUseTest, VisibleBytesIncludeStackedCapacity)
{
    const OrgConfig c = smallConfig();
    const auto dbl = makeOrganization(OrgKind::DoubleUse, c);
    AlloyCacheOrg cache(c, c.offchipBytes);
    // The cache hides the stacked DRAM from the OS; DoubleUse exposes
    // it as extra main memory while keeping the cache.
    EXPECT_EQ(cache.visibleBytes(), c.offchipBytes);
    EXPECT_EQ(dbl->visibleBytes(), c.stackedBytes + c.offchipBytes);
    EXPECT_EQ(dbl->visibleBytes(), cache.visibleBytes() + c.stackedBytes);
    // The backing module really is the enlarged one: addresses past
    // the off-chip capacity are legal device lines.
    EXPECT_EQ(dbl->offchipModule().capacityBytes(),
              c.stackedBytes + c.offchipBytes);
    EXPECT_EQ(dbl->name(), "DoubleUse");
}

TEST(DoubleUseTest, CacheGeometryUnchangedByEnlargedBacking)
{
    const OrgConfig c = smallConfig();
    const auto owner = makeOrganization(OrgKind::DoubleUse, c);
    const auto &dbl = dynamic_cast<const AlloyCacheOrg &>(*owner);
    AlloyCacheOrg cache(c, c.offchipBytes);
    // The stacked cache itself is sized by stackedBytes only — the
    // idealism is all in the backing store.
    EXPECT_EQ(dbl.numSets(), cache.numSets());
    EXPECT_EQ(dbl.stackedModule()->capacityBytes(),
              cache.stackedModule()->capacityBytes());
}

TEST(DoubleUseTest, CapacityLimitedWorkloadFaultsLessThanCache)
{
    // GemsFDTD's footprint exceeds the off-chip memory at tiny scale:
    // the pure cache (OS sees only off-chip) must thrash the page
    // fault handler, while DoubleUse's extra visible capacity absorbs
    // most of the working set.
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 60000;
    const WorkloadProfile &wl = *findWorkload("GemsFDTD");
    ASSERT_EQ(wl.category, WorkloadCategory::CapacityLimited);
    const RunResult cache = runWorkload(c, OrgKind::AlloyCache, wl);
    const RunResult dbl = runWorkload(c, OrgKind::DoubleUse, wl);
    EXPECT_GT(cache.majorFaults, 500u);
    EXPECT_LT(dbl.majorFaults, cache.majorFaults * 3 / 4);
    // Faults dominate execution at this footprint, so the bound also
    // shows up as wall-clock improvement.
    EXPECT_LT(dbl.execTime, cache.execTime);
}

TEST(DoubleUseTest, FunctionalTwinMatchesDetailedState)
{
    const OrgConfig c = smallConfig();
    const auto detailed_org = makeOrganization(OrgKind::DoubleUse, c);
    const auto functional_org = makeOrganization(OrgKind::DoubleUse, c);
    auto &detailed = dynamic_cast<AlloyCacheOrg &>(*detailed_org);
    auto &functional = dynamic_cast<AlloyCacheOrg &>(*functional_org);
    functional.setFidelity(Fidelity::Functional);
    const std::uint64_t lines = detailed.offchipModule().capacityLines();

    Rng rng(c.seed ^ 0x2D0B1E);
    Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        const LineAddr line = rng.next(lines);
        const bool is_write = rng.chance(0.3);
        const InstAddr pc = 0x400000 + rng.next(512) * 4;
        const std::uint32_t core =
            static_cast<std::uint32_t>(rng.next(c.numCores));
        ASSERT_EQ(functional.access(now, line, is_write, pc, core), now);
        now = detailed.access(now, line, is_write, pc, core);
    }

    // Identical cache-architectural outcome...
    EXPECT_EQ(functional.hits().value(), detailed.hits().value());
    EXPECT_EQ(functional.misses().value(), detailed.misses().value());
    EXPECT_GT(detailed.hits().value(), 0u);
    EXPECT_GT(detailed.misses().value(), 0u);
    EXPECT_EQ(functional.tags(), detailed.tags());

    // ...without billing a single DRAM transfer.
    EXPECT_EQ(functional.stackedModule()->reads().value(), 0u);
    EXPECT_EQ(functional.stackedModule()->writes().value(), 0u);
    EXPECT_EQ(functional.offchipModule().reads().value(), 0u);
    EXPECT_EQ(functional.offchipModule().writes().value(), 0u);
    EXPECT_GT(detailed.offchipModule().reads().value() +
                  detailed.stackedModule()->reads().value(),
              0u);
}

TEST(DoubleUseTest, DeterministicAcrossRuns)
{
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 15000;
    const WorkloadProfile &wl = *findWorkload("mcf");
    const RunResult a = runWorkload(c, OrgKind::DoubleUse, wl);
    const RunResult b = runWorkload(c, OrgKind::DoubleUse, wl);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
}

} // namespace
} // namespace cameo
