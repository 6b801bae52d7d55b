/**
 * @file
 * Tests for the paper's result matrix (src/exp/paper): the table of
 * twelve design points, the figure columns that read it, one sweep
 * printing all nine artifacts, and the premise that lets one Baseline
 * run serve every figure whatever its LLT and predictor settings.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/paper.hh"
#include "snapshot_common.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

namespace cameo
{
namespace
{

TEST(PaperMatrixTest, PrintsEveryArtifactFromOneSweep)
{
    SystemConfig base = defaultConfig();
    base.accessesPerCore = 2000;
    const std::vector<DesignPoint> points = paperPoints(base);
    ASSERT_EQ(points.size(), 12u);
    EXPECT_EQ(points.front().label, kPaperBaseline);
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            const SystemConfig &a = points[i].config;
            const SystemConfig &b = points[j].config;
            EXPECT_FALSE(points[i].kind == points[j].kind &&
                         a.llt.kind == b.llt.kind &&
                         a.llt.predictor == b.llt.predictor)
                << points[i].label << " and " << points[j].label;
            EXPECT_NE(points[i].label, points[j].label);
        }
    }

    const std::vector<WorkloadProfile> workloads{*findWorkload("mcf"),
                                                 *findWorkload("milc")};
    SweepOptions options;
    options.jobs = 2;
    const ResultMatrix matrix = runMatrix(points, workloads, options);
    ASSERT_EQ(matrix.points.size(), 12u);
    ASSERT_EQ(matrix.workloads.size(), 2u);
    ASSERT_EQ(matrix.runs.size(), 12u * 2u);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t p = 0; p < points.size(); ++p)
            EXPECT_EQ(matrix.at(p, w).workload, workloads[w].name);
    }

    ASSERT_EQ(paperArtifacts().size(), 9u);
    for (const PaperArtifact &artifact : paperArtifacts()) {
        EXPECT_FALSE(artifact.columns.empty()) << artifact.title;
        for (const MatrixColumn &column : artifact.columns) {
            EXPECT_NO_THROW(matrix.pointIndex(column.point))
                << artifact.title << ": " << column.heading;
        }
    }

    std::ostringstream out;
    printPaperArtifacts(matrix, out);
    const std::string text = out.str();
    const char *const titles[] = {
        "== Figure 2: Speedup over baseline ==",
        "== Table II: Workload characteristics (scaled x1/",
        "== Figure 9: Speedup of LLT designs ==",
        "== Figure 12: Location prediction ==",
        "== Table III: Accuracy of Line Location Predictor",
        "== Figure 13: Speedup over baseline ==",
        "== Table IV: Bandwidth usage",
        "== Figure 14: Normalized power and EDP",
        "== Figure 15: Optimized placement ==",
    };
    for (const char *title : titles)
        EXPECT_NE(text.find(title), std::string::npos) << title;
}

TEST(PaperMatrixTest, BaselineIgnoresLltAndPredictor)
{
    // Every artifact shares one Baseline run per workload, and
    // bench/ablations one across its LLP table sizes: safe only while
    // no setting of the LLT or the predictor reaches a Baseline run.
    SystemConfig colocated = defaultConfig();
    colocated.accessesPerCore = 2000;
    colocated.llt.kind = LltKind::CoLocated;
    colocated.llt.predictor = PredictorKind::Llp;
    colocated.llt.llpTableEntries = 256;
    SystemConfig ideal = colocated;
    ideal.llt.kind = LltKind::Ideal;
    ideal.llt.predictor = PredictorKind::Sam;
    ideal.llt.llpTableEntries = 1;
    for (const char *name : {"mcf", "milc"}) {
        const WorkloadProfile &wl = *findWorkload(name);
        const RunResult a = runWorkload(colocated, OrgKind::Baseline, wl);
        const RunResult b = runWorkload(ideal, OrgKind::Baseline, wl);
        snaptest::expectSameResult(a, b, name);
    }
}

} // namespace
} // namespace cameo
