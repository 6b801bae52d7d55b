/**
 * @file
 * Integration tests: whole-system runs on the tiny configuration, the
 * capacity/fault story across organizations, determinism, MPKI
 * calibration, and the experiment harness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "system/config.hh"
#include "exp/experiment.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

namespace cameo
{
namespace
{

SystemConfig
testConfig()
{
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 15000;
    return c;
}

TEST(ConfigTest, PresetsAreConsistent)
{
    for (const SystemConfig &c :
         {defaultConfig(), paperConfig(), tinyConfig()}) {
        // Stacked must be 25% of total memory (the paper's setting).
        EXPECT_EQ(c.offchipBytes, 3 * c.stackedBytes);
        EXPECT_GT(c.numCores, 0u);
        EXPECT_EQ(c.pageFaultLatency, 100'000u);
    }
    // Paper scale: Table I numbers.
    const SystemConfig p = paperConfig();
    EXPECT_EQ(p.stackedBytes, 4ull << 30);
    EXPECT_EQ(p.offchipBytes, 12ull << 30);
    EXPECT_EQ(p.l3Bytes, 32ull << 20);
    EXPECT_EQ(p.numCores, 32u);
}

TEST(ConfigTest, GeneratorParamsScaleFootprint)
{
    const SystemConfig c = defaultConfig();
    const WorkloadProfile &mcf = *findWorkload("mcf");
    const GeneratorParams gp = c.generatorParamsFor(mcf);
    // mcf: 52.4GB / 512 / 8 cores ≈ 12.8MB per core.
    const double expect =
        52.4 * (1ull << 30) / c.scaleFactor / c.numCores;
    EXPECT_NEAR(static_cast<double>(gp.footprintBytes), expect,
                expect * 0.01);
    EXPECT_GE(gp.gapMeanInstructions, 1.0);
}

TEST(SystemTest, RunsToCompletionOnEveryOrg)
{
    const SystemConfig c = testConfig();
    const WorkloadProfile &wl = *findWorkload("sphinx3");
    for (OrgKind kind :
         {OrgKind::Baseline, OrgKind::AlloyCache, OrgKind::TlmStatic,
          OrgKind::TlmDynamic, OrgKind::TlmFreq, OrgKind::TlmOracle,
          OrgKind::DoubleUse, OrgKind::Cameo}) {
        const RunResult r = runWorkload(c, kind, wl);
        EXPECT_GT(r.execTime, 0u) << orgKindName(kind);
        EXPECT_EQ(r.accesses, c.accessesPerCore * c.numCores);
        EXPECT_GT(r.instructions, r.accesses);
        EXPECT_GT(r.l3Hits + r.l3Misses, 0u);
    }
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    const SystemConfig c = testConfig();
    const WorkloadProfile &wl = *findWorkload("milc");
    const RunResult a = runWorkload(c, OrgKind::Cameo, wl);
    const RunResult b = runWorkload(c, OrgKind::Cameo, wl);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.stackedBytes, b.stackedBytes);
    EXPECT_EQ(a.offchipBytes, b.offchipBytes);
    EXPECT_EQ(a.llpCases, b.llpCases);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
}

TEST(SystemTest, SeedChangesResults)
{
    SystemConfig c = testConfig();
    const WorkloadProfile &wl = *findWorkload("milc");
    const RunResult a = runWorkload(c, OrgKind::Baseline, wl);
    c.seed = 777;
    const RunResult b = runWorkload(c, OrgKind::Baseline, wl);
    EXPECT_NE(a.execTime, b.execTime);
}

TEST(SystemTest, CapacityStoryFaultOrdering)
{
    // A footprint larger than the off-chip memory must fault on the
    // baseline/cache (OS sees 768KB) and fault less — or not at all —
    // on TLM/CAMEO (OS sees 1MB more).
    SystemConfig c = testConfig();
    c.accessesPerCore = 60000;
    const WorkloadProfile &wl = *findWorkload("GemsFDTD");
    const RunResult base = runWorkload(c, OrgKind::Baseline, wl);
    const RunResult cache = runWorkload(c, OrgKind::AlloyCache, wl);
    const RunResult tlm = runWorkload(c, OrgKind::TlmStatic, wl);
    const RunResult cameo = runWorkload(c, OrgKind::Cameo, wl);
    EXPECT_GT(base.majorFaults, 500u);
    // Cache does not add OS-visible capacity: faults stay in the same
    // band (exact counts differ because timing perturbs the victim
    // selection order).
    EXPECT_NEAR(static_cast<double>(cache.majorFaults),
                static_cast<double>(base.majorFaults),
                0.4 * static_cast<double>(base.majorFaults));
    // TLM and CAMEO expose the stacked capacity: notably fewer faults.
    EXPECT_LT(tlm.majorFaults, base.majorFaults * 3 / 4);
    EXPECT_LT(cameo.majorFaults, base.majorFaults * 3 / 4);
}

TEST(SystemTest, CameoBeatsBaselineOnLatencyWorkload)
{
    SystemConfig c = testConfig();
    c.accessesPerCore = 40000;
    const WorkloadProfile &wl = *findWorkload("libquantum");
    const RunResult base = runWorkload(c, OrgKind::Baseline, wl);
    const RunResult cameo = runWorkload(c, OrgKind::Cameo, wl);
    EXPECT_LT(cameo.execTime, base.execTime);
    EXPECT_GT(cameo.stackedServiceFraction(), 0.5);
}

TEST(SystemTest, MpkiInCalibrationBand)
{
    // Measured MPKI should land within ~35% of the Table II target
    // (the generators are calibrated, not exact).
    SystemConfig c = testConfig();
    c.accessesPerCore = 40000;
    for (const char *name : {"milc", "libquantum", "gcc"}) {
        const WorkloadProfile &wl = *findWorkload(name);
        const RunResult r = runWorkload(c, OrgKind::Baseline, wl);
        EXPECT_NEAR(r.mpki(), wl.paperMpki, wl.paperMpki * 0.35) << name;
    }
}

TEST(SystemTest, LlpAccuracyBeatsSamCoverage)
{
    // Table III: LLP accuracy must exceed SAM's (the stacked-service
    // fraction) on a predictable workload.
    SystemConfig c = testConfig();
    c.accessesPerCore = 40000;
    const WorkloadProfile &wl = *findWorkload("leslie3d");
    SystemConfig sam = c;
    sam.llt.predictor = PredictorKind::Sam;
    const RunResult rs = runWorkload(sam, OrgKind::Cameo, wl);
    SystemConfig llp = c;
    llp.llt.predictor = PredictorKind::Llp;
    const RunResult rl = runWorkload(llp, OrgKind::Cameo, wl);
    EXPECT_GT(rl.llpAccuracy, rs.llpAccuracy);
    // Perfect is perfect.
    SystemConfig perfect = c;
    perfect.llt.predictor = PredictorKind::Perfect;
    const RunResult rp = runWorkload(perfect, OrgKind::Cameo, wl);
    EXPECT_DOUBLE_EQ(rp.llpAccuracy, 1.0);
}

TEST(SystemTest, WritebacksReachMemory)
{
    SystemConfig c = testConfig();
    const WorkloadProfile &wl = *findWorkload("lbm"); // write-heavy
    const RunResult r = runWorkload(c, OrgKind::Baseline, wl);
    // Write traffic on the off-chip bus exists (L3 dirty evictions).
    System sys(c, OrgKind::Baseline, wl);
    const RunResult r2 = sys.run();
    (void)r;
    EXPECT_GT(r2.offchipBytes, 0u);
}

TEST(ExperimentTest, ComparisonAndGmeans)
{
    SystemConfig c = testConfig();
    c.accessesPerCore = 10000;
    const std::vector<DesignPoint> points{
        {"Baseline", OrgKind::Baseline, c},
        {"Cache", OrgKind::AlloyCache, c},
        {"CAMEO", OrgKind::Cameo, c},
    };
    const std::vector<MatrixColumn> columns{{"Cache", "Cache"},
                                            {"CAMEO", "CAMEO"}};
    const std::vector<WorkloadProfile> wls{*findWorkload("sphinx3"),
                                           *findWorkload("zeusmp")};
    const ResultMatrix m = runMatrix(points, wls, {});
    ASSERT_EQ(m.workloads.size(), 2u);
    ASSERT_EQ(m.points.size(), 3u);
    ASSERT_EQ(m.runs.size(), 6u);
    for (std::size_t w = 0; w < wls.size(); ++w) {
        for (std::size_t p = 1; p < points.size(); ++p)
            EXPECT_GT(m.speedup(0, p, w), 0.0);
    }
    EXPECT_GT(gmeanSpeedup(m, 0, 1), 0.0);
    EXPECT_GT(gmeanSpeedup(m, 0, 2, WorkloadCategory::CapacityLimited),
              0.0);

    std::ostringstream out;
    printSpeedupTable("test table", m, "Baseline", columns, out);
    EXPECT_NE(out.str().find("sphinx3"), std::string::npos);
    EXPECT_NE(out.str().find("Gmean-ALL"), std::string::npos);
}

TEST(ExperimentTest, CsvExport)
{
    SystemConfig c = testConfig();
    c.accessesPerCore = 5000;
    const std::vector<DesignPoint> points{
        {"Baseline", OrgKind::Baseline, c}, {"CAMEO", OrgKind::Cameo, c}};
    const std::vector<MatrixColumn> columns{{"CAMEO", "CAMEO"}};
    const std::vector<WorkloadProfile> wls{*findWorkload("sphinx3")};
    const ResultMatrix m = runMatrix(points, wls, {});
    const std::string path = "/tmp/cameo_test_export.csv";
    {
        std::ofstream csv(path, std::ios::trunc);
        ASSERT_TRUE(writeSpeedupCsv(csv, m, "Baseline", columns));
    }
    std::ifstream in(path);
    std::string header, line;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(header.find("CAMEO_speedup"), std::string::npos);
    EXPECT_NE(line.find("sphinx3,Latency,"), std::string::npos);
    std::remove(path.c_str());
    std::ofstream unwritable("/nonexistent/dir/x.csv");
    EXPECT_FALSE(writeSpeedupCsv(unwritable, m, "Baseline", columns));
}

TEST(ExperimentTest, CategoryGmeanEmptyIsZero)
{
    SystemConfig c = testConfig();
    c.accessesPerCore = 5000;
    const std::vector<DesignPoint> points{
        {"Baseline", OrgKind::Baseline, c},
        {"Cache", OrgKind::AlloyCache, c}};
    const std::vector<WorkloadProfile> wls{*findWorkload("sphinx3")};
    const ResultMatrix m = runMatrix(points, wls, {});
    EXPECT_EQ(gmeanSpeedup(m, 0, 1, WorkloadCategory::CapacityLimited),
              0.0);
}

} // namespace
} // namespace cameo
