/**
 * @file
 * Tests for the CAMEO + frequency-hints extension (Section VI-D's
 * closing suggestion): cold pages are serviced in place, hot pages
 * swap as in stock CAMEO.
 */

#include <gtest/gtest.h>

#include "orgs/cameo_org.hh"
#include "snapshot_common.hh"
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
    c.freq.epochAccesses = 1 << 20; // no decay during short tests
    return c;
}

TEST(CameoFreqTest, ColdPageServicedInPlace)
{
    CameoOrg org(smallConfig(), /*freq_admission=*/true);
    const std::uint64_t groups = org.groups().numGroups();
    // One touch of an off-chip line: page not yet hot -> no swap.
    org.access(0, groups + 7, false, 0x400, 0);
    EXPECT_EQ(org.swaps().value(), 0u);
    EXPECT_EQ(org.swapsFiltered().value(), 1u);
    // The line is still off-chip.
    EXPECT_EQ(org.llt().locationOf(7, 1), 1u);
}

TEST(CameoFreqTest, HotPageAdmitsSwaps)
{
    CameoOrg org(smallConfig(), /*freq_admission=*/true);
    const std::uint64_t groups = org.groups().numGroups();
    // Touch lines of the same OS page repeatedly until it crosses the
    // hot threshold; page of line (groups + g) for small g is page 0
    // of the second quarter... use distinct lines of one page:
    // lines [groups + 0, groups + 63] share OS page groups/64.
    Tick now = 0;
    for (std::uint32_t i = 0; i < CameoOrg::kHotThreshold + 4; ++i) {
        org.access(now, groups + (i % kLinesPerPage), false, 0x400, 0);
        now += 1000;
    }
    EXPECT_GT(org.swaps().value(), 0u);
    EXPECT_GT(org.hotPages().value(), 0u);
}

TEST(CameoFreqTest, FilterSavesVictimWriteBandwidth)
{
    // Touch every off-chip page fewer times than the hot threshold:
    // stock CAMEO swaps (and writes a victim) on every access; the
    // filter admits none of them.
    const OrgConfig config = smallConfig();
    CameoOrg stock(config);
    CameoOrg filtered(config, /*freq_admission=*/true);
    const std::uint64_t groups = stock.groups().numGroups();
    const std::uint64_t offchip_pages = 2 * groups / kLinesPerPage;
    Tick now = 0;
    for (std::uint64_t p = 0; p < offchip_pages; ++p) {
        for (std::uint32_t t = 0; t + 1 < CameoOrg::kHotThreshold;
             ++t) {
            const LineAddr line = groups + p * kLinesPerPage + t;
            stock.access(now, line, false, 0x400, 0);
            filtered.access(now, line, false, 0x400, 0);
            now += 40;
        }
    }
    EXPECT_GT(stock.swaps().value(), 0u);
    EXPECT_EQ(filtered.swaps().value(), 0u);
    EXPECT_LT(filtered.offchipModule().writeBytes().value(),
              stock.offchipModule().writeBytes().value() / 2);
}

TEST(CameoFreqTest, AdmitsOnlyProvenHotPagesAndRoundTrips)
{
    CameoOrg org(smallConfig(), /*freq_admission=*/true);
    const std::uint64_t groups = org.groups().numGroups();
    const LineAddr line = groups + 5; // slot 1 of group 5: off-chip
    org.access(0, line, false, 0x400, 0);
    EXPECT_EQ(org.swapsFiltered().value(), 1u); // cold page: no swap
    // Writebacks count toward the page's heat but never swap.
    Tick now = 1000;
    for (std::uint32_t i = 1; i < CameoOrg::kHotThreshold; ++i, now += 1000)
        org.access(now, line, true, 0x400, 0);
    EXPECT_EQ(org.swaps().value(), 0u);
    org.access(now, line, false, 0x400, 0);
    EXPECT_EQ(org.swaps().value(), 1u);
    EXPECT_EQ(org.hotPages().value(), 1u);

    // The page counters and epoch progress follow the LLT and LLP in
    // the checkpoint; a fresh CAMEO-Freq restores them exactly.
    CameoOrg fresh(smallConfig(), /*freq_admission=*/true);
    snaptest::expectRoundTripIdentical(org, fresh);
    // Stock CAMEO's layout ends at the LLP, so the extra bytes of a
    // CAMEO-Freq snapshot are rejected.
    CameoOrg stock(smallConfig());
    EXPECT_FALSE(
        snaptest::restoreFromBytes(stock, snaptest::saveBytes(org)));
}

TEST(CameoFreqTest, FactoryAndSystemIntegration)
{
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 8000;
    const WorkloadProfile &wl = *findWorkload("milc");
    const RunResult r = runWorkload(c, OrgKind::CameoFreq, wl);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_EQ(r.orgName, "CAMEO-Freq");
    EXPECT_GT(r.servicedStacked + r.servicedOffchip, 0u);
}

TEST(CameoFreqTest, DeterministicLikeOtherOrgs)
{
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 6000;
    const WorkloadProfile &wl = *findWorkload("soplex");
    const RunResult a = runWorkload(c, OrgKind::CameoFreq, wl);
    const RunResult b = runWorkload(c, OrgKind::CameoFreq, wl);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.offchipBytes, b.offchipBytes);
}

} // namespace
} // namespace cameo
