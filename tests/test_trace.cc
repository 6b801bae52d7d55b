/**
 * @file
 * Unit tests for the trace library: the Table II workload registry and
 * the synthetic generator's statistical contract (determinism, bounds,
 * mode mix, gap calibration, PC pools, dependences).
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "trace/generator.hh"
#include "trace/workloads.hh"
#include "trace_common.hh"

namespace cameo
{
namespace
{

TEST(WorkloadRegistryTest, SeventeenBenchmarks)
{
    EXPECT_EQ(allWorkloads().size(), 17u);
    EXPECT_EQ(workloadsInCategory(WorkloadCategory::CapacityLimited).size(),
              6u);
    EXPECT_EQ(workloadsInCategory(WorkloadCategory::LatencyLimited).size(),
              11u);
}

TEST(WorkloadRegistryTest, TableTwoValues)
{
    // Spot-check the published Table II numbers.
    const WorkloadProfile *mcf = findWorkload("mcf");
    ASSERT_NE(mcf, nullptr);
    EXPECT_DOUBLE_EQ(mcf->paperFootprintGb, 52.4);
    EXPECT_DOUBLE_EQ(mcf->paperMpki, 39.1);
    EXPECT_EQ(mcf->category, WorkloadCategory::CapacityLimited);

    const WorkloadProfile *milc = findWorkload("milc");
    ASSERT_NE(milc, nullptr);
    EXPECT_DOUBLE_EQ(milc->paperFootprintGb, 11.2);
    EXPECT_DOUBLE_EQ(milc->paperMpki, 31.9);
    // The paper: milc uses ~10 of 64 lines per page.
    EXPECT_EQ(milc->linesPerPage, 10u);

    const WorkloadProfile *astar = findWorkload("astar");
    ASSERT_NE(astar, nullptr);
    EXPECT_DOUBLE_EQ(astar->paperMpki, 1.81);
}

TEST(WorkloadRegistryTest, FindUnknownReturnsNull)
{
    EXPECT_EQ(findWorkload("not-a-benchmark"), nullptr);
}

TEST(WorkloadRegistryTest, FractionsSumToOne)
{
    for (const auto &p : allWorkloads()) {
        EXPECT_NEAR(p.streamFrac + p.pointerFrac + p.hotFrac, 1.0, 1e-9)
            << p.name;
        EXPECT_GE(p.linesPerPage, 1u) << p.name;
        EXPECT_LE(p.linesPerPage, 64u) << p.name;
        EXPECT_GE(p.mlp, 1u) << p.name;
    }
}

TEST(WorkloadRegistryTest, CategoriesMatchFootprintRule)
{
    // Table II: Capacity-Limited = footprint > 12GB.
    for (const auto &p : allWorkloads()) {
        if (p.category == WorkloadCategory::CapacityLimited)
            EXPECT_GT(p.paperFootprintGb, 12.0) << p.name;
        else
            EXPECT_LE(p.paperFootprintGb, 12.0) << p.name;
    }
}

class GeneratorTest : public ::testing::Test
{
  protected:
    GeneratorParams
    params() const
    {
        GeneratorParams gp;
        gp.footprintBytes = 2 << 20; // 512 pages
        gp.hotSetBytes = 8 << 10;    // 2 pages
        gp.gapMeanInstructions = 30.0;
        return gp;
    }
};

TEST_F(GeneratorTest, DeterministicForSameSeed)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    SyntheticGenerator a(wl, params(), 42), b(wl, params(), 42);
    for (int i = 0; i < 5000; ++i) {
        const Access x = nextAccess(a), y = nextAccess(b);
        EXPECT_EQ(x.vaddr, y.vaddr);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.isWrite, y.isWrite);
        EXPECT_EQ(x.gapInstructions, y.gapInstructions);
        EXPECT_EQ(x.dependsOnPrev, y.dependsOnPrev);
    }
}

TEST_F(GeneratorTest, DifferentSeedsProduceDifferentStreams)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    SyntheticGenerator a(wl, params(), 1), b(wl, params(), 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (nextAccess(a).vaddr == nextAccess(b).vaddr);
    EXPECT_LT(same, 100);
}

TEST_F(GeneratorTest, AddressesWithinFootprintPlusHotRegion)
{
    const WorkloadProfile &wl = *findWorkload("gcc");
    SyntheticGenerator gen(wl, params(), 3);
    const std::uint64_t max_page = gen.numPages() + gen.hotPages();
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(pageOf(nextAccess(gen).vaddr), max_page);
}

TEST_F(GeneratorTest, GapMeanApproximatesTarget)
{
    const WorkloadProfile &wl = *findWorkload("lbm");
    SyntheticGenerator gen(wl, params(), 4);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += nextAccess(gen).gapInstructions;
    EXPECT_NEAR(sum / n, params().gapMeanInstructions,
                params().gapMeanInstructions * 0.1);
}

TEST_F(GeneratorTest, WriteFractionApproximatesProfile)
{
    const WorkloadProfile &wl = *findWorkload("lbm"); // writeFrac 0.45
    SyntheticGenerator gen(wl, params(), 5);
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += nextAccess(gen).isWrite;
    EXPECT_NEAR(writes / double(n), wl.writeFrac, 0.03);
}

TEST_F(GeneratorTest, DependentAccessesOnlyFromPointerMode)
{
    // libquantum has no pointer mode: nothing may depend.
    const WorkloadProfile &wl = *findWorkload("libquantum");
    SyntheticGenerator gen(wl, params(), 6);
    for (int i = 0; i < 20000; ++i)
        EXPECT_FALSE(nextAccess(gen).dependsOnPrev);
}

TEST_F(GeneratorTest, PointerHeavyWorkloadHasDependences)
{
    const WorkloadProfile &wl = *findWorkload("omnetpp");
    SyntheticGenerator gen(wl, params(), 7);
    int dependent = 0;
    for (int i = 0; i < 20000; ++i)
        dependent += nextAccess(gen).dependsOnPrev;
    EXPECT_GT(dependent, 2000);
}

TEST_F(GeneratorTest, PcPoolIsSmallAndStable)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    SyntheticGenerator gen(wl, params(), 8);
    std::set<InstAddr> pcs;
    for (int i = 0; i < 50000; ++i)
        pcs.insert(nextAccess(gen).pc);
    // Stream + reuse + pointer + hot pools: dozens, not thousands.
    EXPECT_LE(pcs.size(),
              std::size_t{wl.streamPcs} * 2 + wl.pointerPcs + wl.hotPcs);
    EXPECT_GE(pcs.size(), 4u);
}

TEST_F(GeneratorTest, SpatialLocalityHonorsLinesPerPage)
{
    // milc: at most linesPerPage distinct lines per page (plus hot
    // pages which use all 64).
    const WorkloadProfile &wl = *findWorkload("milc");
    SyntheticGenerator gen(wl, params(), 9);
    std::unordered_map<PageAddr, std::set<std::uint64_t>> lines_per_page;
    for (int i = 0; i < 100000; ++i) {
        const Access a = nextAccess(gen);
        if (pageOf(a.vaddr) < gen.numPages()) // exclude hot region
            lines_per_page[pageOf(a.vaddr)].insert(lineOf(a.vaddr) & 63);
    }
    for (const auto &[page, lines] : lines_per_page)
        EXPECT_LE(lines.size(), std::size_t{wl.linesPerPage});
}

TEST_F(GeneratorTest, TemporalReuseExists)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    SyntheticGenerator gen(wl, params(), 10);
    std::unordered_set<std::uint64_t> seen;
    int reuse = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const auto line = lineOf(nextAccess(gen).vaddr);
        reuse += !seen.insert(line).second;
    }
    // Workloads must reuse lines heavily (caches would be useless
    // otherwise).
    EXPECT_GT(reuse, n / 2);
}

TEST_F(GeneratorTest, FootprintCoverageIsComplete)
{
    // Over a long run every footprint page must be reachable (the
    // affine scatter is a bijection and windows drift over everything).
    const WorkloadProfile &wl = *findWorkload("gcc");
    GeneratorParams gp = params();
    gp.footprintBytes = 128 << 12; // 128 pages: small for fast coverage
    SyntheticGenerator gen(wl, gp, 11);
    std::set<PageAddr> pages;
    for (int i = 0; i < 400000; ++i) {
        const PageAddr p = pageOf(nextAccess(gen).vaddr);
        if (p < gen.numPages())
            pages.insert(p);
    }
    EXPECT_GE(pages.size(), gen.numPages() * 9 / 10);
}

TEST_F(GeneratorTest, PageHeatProfileIsDeterministicAndMatchesStream)
{
    const WorkloadProfile &wl = *findWorkload("xalancbmk");
    const auto heat_a = profilePageHeat(wl, params(), 77, 20000);
    const auto heat_b = profilePageHeat(wl, params(), 77, 20000);
    EXPECT_EQ(heat_a.size(), heat_b.size());
    std::uint64_t total = 0;
    for (const auto &[page, count] : heat_a) {
        total += count;
        const auto it = heat_b.find(page);
        ASSERT_NE(it, heat_b.end());
        EXPECT_EQ(it->second, count);
    }
    EXPECT_EQ(total, 20000u);
}

TEST(WorkloadSelectionTest, ByNamesSplitsCsvInOrder)
{
    std::vector<std::string> unknown;
    const auto selected = workloadsByNames("mcf,milc,soplex", &unknown);
    ASSERT_EQ(selected.size(), 3u);
    EXPECT_EQ(selected[0].name, "mcf");
    EXPECT_EQ(selected[1].name, "milc");
    EXPECT_EQ(selected[2].name, "soplex");
    EXPECT_TRUE(unknown.empty());
}

TEST(WorkloadSelectionTest, ByNamesReportsUnknownAndSkipsEmpty)
{
    std::vector<std::string> unknown;
    const auto selected =
        workloadsByNames(",mcf,,bogus,milc,nope,", &unknown);
    ASSERT_EQ(selected.size(), 2u);
    EXPECT_EQ(selected[0].name, "mcf");
    EXPECT_EQ(selected[1].name, "milc");
    ASSERT_EQ(unknown.size(), 2u);
    EXPECT_EQ(unknown[0], "bogus");
    EXPECT_EQ(unknown[1], "nope");
}

TEST(WorkloadSelectionTest, ByNamesEmptyInputSelectsNothing)
{
    std::vector<std::string> unknown;
    EXPECT_TRUE(workloadsByNames("", &unknown).empty());
    EXPECT_TRUE(unknown.empty());
    // The null out-param form must also be safe.
    EXPECT_TRUE(workloadsByNames("bogus").empty());
}

} // namespace
} // namespace cameo
