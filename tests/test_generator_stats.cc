/**
 * @file
 * Statistical-contract tests for the synthetic generator: the specific
 * mechanisms calibration depends on (access-share mode mixing, tiered
 * lap reuse, near-past re-touch PCs, bijective rank scattering).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>

#include "trace/generator.hh"
#include "trace/workloads.hh"
#include "trace_common.hh"

namespace cameo
{
namespace
{

GeneratorParams
params(std::uint64_t footprint_pages = 512)
{
    GeneratorParams gp;
    gp.footprintBytes = footprint_pages * kPageBytes;
    gp.hotSetBytes = 2 * kPageBytes;
    gp.gapMeanInstructions = 25.0;
    return gp;
}

/** Classify an access by the PC pools the generator uses. */
enum class Mode
{
    Stream,
    Pointer,
    Hot,
};

Mode
modeOfPc(InstAddr pc)
{
    if (pc >= 0x600000)
        return Mode::Hot;
    if (pc >= 0x500000)
        return Mode::Pointer;
    return Mode::Stream;
}

TEST(GeneratorStatsTest, ModeFractionsAreAccessShares)
{
    // The profile's stream/pointer/hot fractions are *access* shares;
    // burst-length differences must not skew them (the lbm bug this
    // guards against: pointer mode shrinking to 0.5% because stream
    // bursts are 25x longer).
    for (const char *name : {"lbm", "gcc", "milc", "xalancbmk"}) {
        const WorkloadProfile &wl = *findWorkload(name);
        SyntheticGenerator gen(wl, params(), 3);
        std::map<Mode, int> counts;
        const int n = 200000;
        for (int i = 0; i < n; ++i)
            ++counts[modeOfPc(nextAccess(gen).pc)];
        EXPECT_NEAR(counts[Mode::Stream] / double(n), wl.streamFrac, 0.06)
            << name;
        EXPECT_NEAR(counts[Mode::Pointer] / double(n), wl.pointerFrac,
                    0.06)
            << name;
        EXPECT_NEAR(counts[Mode::Hot] / double(n), wl.hotFrac, 0.06)
            << name;
    }
}

TEST(GeneratorStatsTest, NearReuseUsesDistinctPc)
{
    // Re-touches come from a different static instruction than the
    // advancing load (offset +2); the LLP depends on this separation.
    const WorkloadProfile &wl = *findWorkload("GemsFDTD");
    ASSERT_GT(wl.nearReuseFrac, 0.0);
    SyntheticGenerator gen(wl, params(), 5);
    std::set<InstAddr> stream_pcs;
    for (int i = 0; i < 100000; ++i) {
        const Access a = nextAccess(gen);
        if (modeOfPc(a.pc) == Mode::Stream)
            stream_pcs.insert(a.pc);
    }
    // Both the base PCs (multiples of 4) and the +2 reuse PCs exist.
    bool base = false, reuse = false;
    for (const InstAddr pc : stream_pcs) {
        if (pc % 4 == 0)
            base = true;
        if (pc % 4 == 2)
            reuse = true;
    }
    EXPECT_TRUE(base);
    EXPECT_TRUE(reuse);
}

TEST(GeneratorStatsTest, NoReusePcWhenDisabled)
{
    const WorkloadProfile &wl = *findWorkload("libquantum");
    ASSERT_DOUBLE_EQ(wl.nearReuseFrac, 0.0);
    SyntheticGenerator gen(wl, params(64), 6);
    for (int i = 0; i < 50000; ++i) {
        const Access a = nextAccess(gen);
        if (modeOfPc(a.pc) == Mode::Stream) {
            ASSERT_EQ(a.pc % 4, 0u);
        }
    }
}

TEST(GeneratorStatsTest, TieredLapsConcentrateReuse)
{
    // Inner laps revisit the window prefix more than its tail: page
    // touch counts within a window must be clearly non-uniform.
    WorkloadProfile wl = *findWorkload("lbm");
    wl.pointerFrac = 0.0;
    wl.hotFrac = 0.0;
    wl.streamFrac = 1.0;
    wl.nearReuseFrac = 0.0; // isolate the lap mechanism
    SyntheticGenerator gen(wl, params(1024), 7);
    std::unordered_map<PageAddr, int> touches;
    for (int i = 0; i < 400000; ++i)
        ++touches[pageOf(nextAccess(gen).vaddr)];
    int mx = 0, mn = 1 << 30;
    double sum = 0;
    for (const auto &[page, count] : touches) {
        mx = std::max(mx, count);
        mn = std::min(mn, count);
        sum += count;
    }
    const double mean = sum / static_cast<double>(touches.size());
    // The lap tiering makes the window prefix ~2x hotter than the
    // tail; a flat lap structure would put everything near the mean.
    EXPECT_GT(mx, 1.8 * mean);
    EXPECT_LT(mn, 0.7 * mean);
}

TEST(GeneratorStatsTest, ZipfScatterIsBijective)
{
    // Pointer mode must be able to reach every footprint page (the
    // affine permutation; a hash would strand ~1/e of them).
    WorkloadProfile wl = *findWorkload("mcf");
    wl.streamFrac = 0.0;
    wl.hotFrac = 0.0;
    wl.pointerFrac = 1.0;
    wl.zipfExponent = 0.05; // near-uniform for fast coverage
    SyntheticGenerator gen(wl, params(256), 8);
    std::set<PageAddr> pages;
    for (int i = 0; i < 300000; ++i) {
        const PageAddr p = pageOf(nextAccess(gen).vaddr);
        if (p < gen.numPages())
            pages.insert(p);
    }
    EXPECT_EQ(pages.size(), gen.numPages());
}

TEST(GeneratorStatsTest, DependentFractionHonored)
{
    const WorkloadProfile &omnet = *findWorkload("omnetpp");
    SyntheticGenerator gen(omnet, params(), 9);
    int pointer_accesses = 0, dependent = 0;
    for (int i = 0; i < 200000; ++i) {
        const Access a = nextAccess(gen);
        if (modeOfPc(a.pc) == Mode::Pointer) {
            ++pointer_accesses;
            dependent += a.dependsOnPrev;
        }
    }
    ASSERT_GT(pointer_accesses, 1000);
    // dependentFrac applies to non-first-in-burst pointer accesses;
    // with ~30-access bursts the observed rate is slightly below it.
    EXPECT_NEAR(dependent / double(pointer_accesses),
                omnet.dependentFrac, 0.12);
}

TEST(GeneratorStatsTest, HotRegionStaysHot)
{
    // Hot-mode accesses concentrate on the dedicated hot pages after
    // the footprint region.
    const WorkloadProfile &wl = *findWorkload("cactusADM");
    SyntheticGenerator gen(wl, params(), 10);
    for (int i = 0; i < 100000; ++i) {
        const Access a = nextAccess(gen);
        if (modeOfPc(a.pc) != Mode::Hot)
            continue;
        ASSERT_GE(pageOf(a.vaddr), gen.numPages());
        ASSERT_LT(pageOf(a.vaddr), gen.numPages() + gen.hotPages());
    }
}

} // namespace
} // namespace cameo
