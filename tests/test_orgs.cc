/**
 * @file
 * Unit tests for the memory organizations: factory, visible-capacity
 * accounting (the crux of the capacity story), routing, the Alloy
 * cache, TLM migration variants, and the CAMEO organization.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "orgs/alloy_cache.hh"
#include "orgs/baseline.hh"
#include "orgs/cameo_org.hh"
#include "orgs/composed_org.hh"
#include "orgs/memory_organization.hh"
#include "orgs/policy/epoch_freq_placement.hh"
#include "snapshot_common.hh"
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
    c.seed = 42;
    c.freq.epochAccesses = 512;
    return c;
}

TEST(OrgFactoryTest, BuildsEveryKind)
{
    const OrgConfig c = smallConfig();
    for (OrgKind kind : allOrgKinds()) {
        const auto org = makeOrganization(kind, c);
        ASSERT_NE(org, nullptr) << orgKindName(kind);
        EXPECT_EQ(org->name(), orgKindName(kind));
        EXPECT_GT(org->visibleBytes(), 0u);
    }
}

TEST(OrgVisibilityTest, CapacityAccountingMatchesPaper)
{
    const OrgConfig c = smallConfig();
    // Cache and Baseline hide the stacked DRAM from the OS.
    EXPECT_EQ(makeOrganization(OrgKind::Baseline, c)->visibleBytes(),
              c.offchipBytes);
    EXPECT_EQ(makeOrganization(OrgKind::AlloyCache, c)->visibleBytes(),
              c.offchipBytes);
    // TLM exposes both.
    EXPECT_EQ(makeOrganization(OrgKind::TlmStatic, c)->visibleBytes(),
              c.stackedBytes + c.offchipBytes);
    // DoubleUse idealistically exposes both AND keeps the cache.
    EXPECT_EQ(makeOrganization(OrgKind::DoubleUse, c)->visibleBytes(),
              c.stackedBytes + c.offchipBytes);
    // CAMEO (Co-Located) loses 1/32 of stacked to LEAD entries.
    OrgConfig cam = c;
    cam.llt.kind = LltKind::CoLocated;
    const std::uint64_t visible =
        makeOrganization(OrgKind::Cameo, cam)->visibleBytes();
    EXPECT_EQ(visible, (c.stackedBytes + c.offchipBytes -
                        c.stackedBytes / 32) /
                           kPageBytes * kPageBytes);
    // Ideal LLT: no loss.
    cam.llt.kind = LltKind::Ideal;
    EXPECT_EQ(makeOrganization(OrgKind::Cameo, cam)->visibleBytes(),
              c.stackedBytes + c.offchipBytes);
    // Embedded: loses the LLT region (1 byte per 256B of memory).
    cam.llt.kind = LltKind::Embedded;
    const std::uint64_t embedded_visible =
        makeOrganization(OrgKind::Cameo, cam)->visibleBytes();
    EXPECT_LT(embedded_visible, c.stackedBytes + c.offchipBytes);
    EXPECT_GT(embedded_visible, visible); // smaller loss than LEAD
}

TEST(BaselineOrgTest, RoutesEverythingOffchip)
{
    BaselineOrg org(smallConfig());
    org.access(0, 100, false, 0x400, 0);
    org.access(10, 200, true, 0x400, 1);
    EXPECT_EQ(org.offchipModule().reads().value(), 1u);
    EXPECT_EQ(org.offchipModule().writes().value(), 1u);
    EXPECT_EQ(org.stackedModule(), nullptr);
}

TEST(AlloyCacheTest, MissFillHit)
{
    AlloyCacheOrg org(smallConfig(), smallConfig().offchipBytes);
    org.access(0, 1234, false, 0x400, 0);
    EXPECT_EQ(org.misses().value(), 1u);
    org.access(100000, 1234, false, 0x400, 0);
    EXPECT_EQ(org.hits().value(), 1u);
    EXPECT_DOUBLE_EQ(org.hitRate(), 0.5);
}

TEST(AlloyCacheTest, TadBurstBytes)
{
    AlloyCacheOrg org(smallConfig(), smallConfig().offchipBytes);
    org.access(0, 1, false, 0x400, 0);
    // One TAD read burst (80B) on the miss path.
    EXPECT_EQ(org.stackedModule()->readBytes().value(),
              AlloyCacheOrg::kTadBurstBytes);
}

TEST(AlloyCacheTest, SetCountUsesTadGeometry)
{
    const OrgConfig c = smallConfig();
    AlloyCacheOrg org(c, c.offchipBytes);
    // 28 TADs per 32-line row.
    EXPECT_EQ(org.numSets(), c.stackedBytes / 64 / 32 * 28);
}

TEST(AlloyCacheTest, ConflictEvictsPriorLine)
{
    const OrgConfig c = smallConfig();
    AlloyCacheOrg org(c, c.offchipBytes);
    const LineAddr a = 77;
    const LineAddr b = 77 + org.numSets(); // same set
    org.access(0, a, false, 0x400, 0);
    org.access(1000, b, false, 0x400, 0);
    org.access(2000, a, false, 0x400, 0); // must miss again
    EXPECT_EQ(org.misses().value(), 3u);
    EXPECT_EQ(org.hits().value(), 0u);
}

TEST(AlloyCacheTest, DirtyVictimWrittenBack)
{
    const OrgConfig c = smallConfig();
    AlloyCacheOrg org(c, c.offchipBytes);
    const LineAddr a = 77;
    const LineAddr b = 77 + org.numSets();
    org.access(0, a, false, 0x400, 0);
    org.access(1000, a, true, 0x400, 0); // writeback dirties the TAD
    const std::uint64_t writes = org.offchipModule().writes().value();
    org.access(2000, b, false, 0x400, 0); // evicts dirty a
    EXPECT_EQ(org.offchipModule().writes().value(), writes + 1);
}

TEST(AlloyCacheTest, TagArrayRoundTripsThroughSnapshot)
{
    const OrgConfig c = smallConfig();
    AlloyCacheOrg org(c, c.offchipBytes);
    const LineAddr a = 5;
    org.access(0, a, false, 0x400, 0);
    org.access(1000, a + 7, true, 0x400, 0);
    const AlloyCacheOrg::TagEntry &set = org.tags()[a % org.numSets()];
    EXPECT_TRUE(set.valid && set.tag == a && !set.dirty);
    EXPECT_TRUE(org.tags()[(a + 7) % org.numSets()].dirty);

    AlloyCacheOrg fresh(c, c.offchipBytes);
    snaptest::expectRoundTripIdentical(org, fresh);
    EXPECT_EQ(fresh.tags(), org.tags());
    // The restored tags are live (counters are registry stats, not
    // org state): the line resident before the snapshot hits, a
    // same-set line misses.
    fresh.access(2000, a, false, 0x400, 0);
    EXPECT_EQ(fresh.hits().value(), 1u);
    fresh.access(3000, a + org.numSets(), false, 0x400, 0);
    EXPECT_EQ(fresh.misses().value(), 1u);
}

TEST(AlloyCacheTest, RestoreRejectsSetCountMismatch)
{
    // Same DRAM geometry (channels x banks), twice the sets: the DRAM
    // modules restore, so the tag array's own check must refuse.
    const OrgConfig c = smallConfig();
    OrgConfig big = c;
    big.stackedBytes = 2 * c.stackedBytes;
    AlloyCacheOrg org(c, c.offchipBytes);
    AlloyCacheOrg other(big, big.offchipBytes);
    ASSERT_NE(org.numSets(), other.numSets());

    std::string error;
    EXPECT_FALSE(
        snaptest::restoreFromBytes(other, snaptest::saveBytes(org), &error));
    EXPECT_NE(error.find("set count mismatch"), std::string::npos) << error;
}

TEST(TlmStaticTest, RoutesByDevicePage)
{
    const auto owner = makeOrganization(OrgKind::TlmStatic, smallConfig());
    auto &org = dynamic_cast<ComposedOrg &>(*owner);
    // Device pages below stackedPages go to stacked DRAM.
    const LineAddr stacked_line = 3; // page 0
    const LineAddr offchip_line =
        (org.stackedPages() + 1) * kLinesPerPage + 3;
    org.access(0, stacked_line, false, 0x400, 0);
    EXPECT_EQ(org.stackedModule()->reads().value(), 1u);
    org.access(10, offchip_line, false, 0x400, 0);
    EXPECT_EQ(org.offchipModule().reads().value(), 1u);
    EXPECT_EQ(org.pageMigrations().value(), 0u);
}

TEST(TlmDynamicTest, MigratesPageAfterThresholdTouches)
{
    OrgConfig c = smallConfig();
    c.migrate.migrateThreshold = 2;
    const auto owner = makeOrganization(OrgKind::TlmDynamic, c);
    auto &org = dynamic_cast<ComposedOrg &>(*owner);
    const PageAddr phys_page = org.stackedPages() + 5; // off-chip
    const LineAddr line = phys_page * kLinesPerPage;
    org.access(0, line, false, 0x400, 0);
    EXPECT_EQ(org.pageMigrations().value(), 0u); // first touch: no
    org.access(1000, line + 1, false, 0x400, 0);
    EXPECT_EQ(org.pageMigrations().value(), 1u); // second: migrate
    // The page is now in stacked memory.
    EXPECT_LT(org.devicePageOf(phys_page), org.stackedPages());
    // And some stacked page was displaced off-chip (remap stays a
    // bijection: exactly one page out).
    org.access(5000, line + 2, false, 0x400, 0);
    EXPECT_EQ(org.stackedModule()->reads().value() > 0, true);
}

TEST(TlmDynamicTest, SwapBillsSixteenKilobytes)
{
    OrgConfig c = smallConfig();
    c.migrate.migrateThreshold = 1;
    const auto owner = makeOrganization(OrgKind::TlmDynamic, c);
    auto &org = dynamic_cast<ComposedOrg &>(*owner);
    const PageAddr phys_page = org.stackedPages() + 5;
    const LineAddr line = phys_page * kLinesPerPage;
    org.access(0, line, false, 0x400, 0);
    EXPECT_EQ(org.pageMigrations().value(), 1u);
    // Section II-C: both modules read and write 4KB each.
    EXPECT_EQ(org.stackedModule()->readBytes().value(), kPageBytes);
    EXPECT_EQ(org.stackedModule()->writeBytes().value(), kPageBytes);
    // Off-chip: the demand line read + 4KB page read + 4KB page write.
    EXPECT_EQ(org.offchipModule().readBytes().value(),
              kPageBytes + kLineBytes);
    EXPECT_EQ(org.offchipModule().writeBytes().value(), kPageBytes);
}

TEST(TlmFreqTest, EpochMovesHotPageIn)
{
    OrgConfig c = smallConfig();
    c.freq.epochAccesses = 64;
    const auto owner = makeOrganization(OrgKind::TlmFreq, c);
    auto &org = dynamic_cast<ComposedOrg &>(*owner);
    const PageAddr hot = org.stackedPages() + 9; // starts off-chip
    for (int i = 0; i < 64; ++i)
        org.access(i * 100, hot * kLinesPerPage + (i % 8), false, 0x400, 0);
    const auto &freq =
        dynamic_cast<const EpochFrequencyPlacement &>(org.placementPolicy());
    EXPECT_EQ(freq.epochs().value(), 1u);
    EXPECT_LT(org.devicePageOf(hot), org.stackedPages());
    EXPECT_GT(org.pageMigrations().value(), 0u);
}

TEST(TlmOracleTest, HotPagePlacedInStackedAtMapTime)
{
    const auto owner = makeOrganization(OrgKind::TlmOracle, smallConfig());
    auto &org = dynamic_cast<ComposedOrg &>(*owner);
    PageHeatMap heat;
    heat[pageHeatKey(0, 0x100)] = 1000; // hot virtual page
    heat[pageHeatKey(0, 0x200)] = 1;    // cold
    org.setPageHeat(std::move(heat));

    // Map the hot vpage to an off-chip physical frame: the oracle
    // should swap its mapping into stacked at no cost.
    const auto off_frame =
        static_cast<std::uint32_t>(org.stackedPages() + 3);
    org.onPageMapped(off_frame, 0, 0x100);
    EXPECT_LT(org.devicePageOf(off_frame), org.stackedPages());
    EXPECT_EQ(org.pageMigrations().value(), 0u); // oracular: free

    // A cold page maps off-chip and stays there (all stacked slots
    // currently hold zero-heat pages... the hot one included, so the
    // cold one cannot displace anything hotter than itself).
    const auto off_frame2 =
        static_cast<std::uint32_t>(org.stackedPages() + 4);
    org.onPageMapped(off_frame2, 0, 0x200);
    // 0x200 (heat 1) displaces a zero-heat identity page, not 0x100.
    EXPECT_LT(org.devicePageOf(off_frame), org.stackedPages());
}

TEST(CameoOrgTest, VariantNames)
{
    EXPECT_EQ(CameoOrg::variantName(LltKind::CoLocated,
                                    PredictorKind::Llp),
              "CAMEO");
    EXPECT_EQ(CameoOrg::variantName(LltKind::Ideal, PredictorKind::Sam),
              "CAMEO(Ideal-LLT+SAM)");
}

TEST(CameoOrgTest, ExposesController)
{
    OrgConfig c = smallConfig();
    const auto org = makeOrganization(OrgKind::Cameo, c);
    EXPECT_EQ(org->cameo(), org.get());
    EXPECT_EQ(org->cameo()->llt().groupSize(), 4u);
    const auto freq = makeOrganization(OrgKind::CameoFreq, c);
    EXPECT_EQ(freq->cameo(), freq.get());
    // Non-CAMEO organizations expose no controller.
    EXPECT_EQ(makeOrganization(OrgKind::Baseline, c)->cameo(), nullptr);
}

TEST(CameoOrgTest, StatsRegistered)
{
    OrgConfig c = smallConfig();
    const auto org = makeOrganization(OrgKind::Cameo, c);
    StatRegistry reg;
    org->registerStats(reg);
    EXPECT_NE(reg.findCounter("cameo.swaps"), nullptr);
    EXPECT_NE(reg.findCounter("dram.stacked.readBytes"), nullptr);
    EXPECT_NE(reg.findCounter("llp.case1"), nullptr);
}

/** One DRAM module's checkpoint bytes: its whole timing state. */
std::vector<std::uint8_t>
moduleBytes(const DramModule &module)
{
    SnapshotWriter w;
    w.beginSection("dram");
    module.save(w);
    w.endSection();
    return w.finish();
}

TEST(OrgFidelityTest, UntimedModulesSeeNoTraffic)
{
    // Functional fidelity lives in the DRAM modules alone: each org's
    // one access path, run against untimed modules, must return the
    // request time, leave every bank, bus, queue and counter at
    // power-on, and count no speculative fetch (whose fate is a
    // property of queue occupancy).
    std::size_t guarded = 0; // speculative-fetch counters checked
    for (const TimingMode mode : {TimingMode::Blocking, TimingMode::Queued}) {
        for (const OrgKind kind : allOrgKinds()) {
            SCOPED_TRACE(std::string(orgKindName(kind)) +
                         (mode == TimingMode::Queued ? " queued"
                                                     : " blocking"));
            OrgConfig c = smallConfig();
            c.timingMode = mode;
            const auto org = makeOrganization(kind, c);
            const auto fresh = makeOrganization(kind, c);
            StatRegistry reg;
            org->registerStats(reg);
            org->setFidelity(Fidelity::Functional);

            const std::uint64_t lines = org->visibleBytes() / kLineBytes;
            Rng rng(static_cast<std::uint64_t>(kind) + 300);
            Tick now = 0;
            for (int i = 0; i < 20000; ++i, now += 25) {
                const LineAddr line = rng.next(lines);
                const bool is_write = rng.chance(0.3);
                const InstAddr pc = 0x400000 + 4 * rng.next(512);
                const auto core =
                    static_cast<std::uint32_t>(rng.next(c.numCores));
                ASSERT_EQ(org->access(now, line, is_write, pc, core), now);
            }

            std::vector<std::pair<const DramModule *, const DramModule *>>
                mods{{&org->offchipModule(), &fresh->offchipModule()}};
            if (org->stackedModule() != nullptr)
                mods.emplace_back(org->stackedModule(),
                                  fresh->stackedModule());
            for (const auto &[used, cold] : mods) {
                EXPECT_EQ(used->reads().value(), 0u) << used->name();
                EXPECT_EQ(used->writes().value(), 0u) << used->name();
                EXPECT_EQ(used->readBytes().value(), 0u) << used->name();
                EXPECT_EQ(used->writeBytes().value(), 0u) << used->name();
                EXPECT_EQ(moduleBytes(*used), moduleBytes(*cold))
                    << used->name();
            }
            for (const char *name :
                 {"alloy.wastedFetches", "cameo.wastedFetches",
                  "cameo.squashedFetches"}) {
                if (const Counter *counter = reg.findCounter(name)) {
                    ++guarded;
                    EXPECT_EQ(counter->value(), 0u) << name;
                }
            }

            // Back at Detailed, the next read reaches the devices.
            org->setFidelity(Fidelity::Detailed);
            org->access(now, rng.next(lines), false, 0x400000, 0);
            std::uint64_t commands = 0;
            for (const auto &mod : mods)
                commands += mod.first->reads().value() +
                            mod.first->writes().value();
            EXPECT_GT(commands, 0u);
        }
    }
    // Cache and DoubleUse guard one counter, CAMEO and CAMEO-Freq two.
    EXPECT_EQ(guarded, 2u * (1 + 1 + 2 + 2));
}

TEST(OrgStressTest, RandomTrafficOnEveryOrg)
{
    // Functional smoke: every organization survives random traffic and
    // keeps its device addressing in bounds (asserts inside fire on
    // violation).
    for (OrgKind kind : allOrgKinds()) {
        OrgConfig c = smallConfig();
        const auto org = makeOrganization(kind, c);
        if (kind == OrgKind::TlmOracle)
            org->setPageHeat({});
        const std::uint64_t lines = org->visibleBytes() / kLineBytes;
        Rng rng(static_cast<std::uint64_t>(kind) + 100);
        Tick now = 0;
        Tick last_read_done = 0;
        for (int i = 0; i < 20000; ++i) {
            const bool is_write = rng.chance(0.3);
            const Tick done = org->access(now, rng.next(lines), is_write,
                                          0x400000 + 4 * rng.next(64),
                                          static_cast<std::uint32_t>(
                                              rng.next(c.numCores)));
            EXPECT_GE(done, now);
            if (!is_write)
                last_read_done = done;
            now += 25;
        }
        EXPECT_GT(last_read_done, 0u) << orgKindName(kind);
    }
}

} // namespace
} // namespace cameo
