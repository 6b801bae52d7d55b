/**
 * @file
 * The paper's evaluation from one sweep: every design point of
 * exp/paper.hh (Baseline, Cache, DoubleUse, the four TLM variants and
 * five CAMEO LLT x predictor settings) runs once per workload, then
 * Figures 2, 9, 12, 13, 14 and 15 and Tables II, III and IV print from
 * that one result matrix.
 *
 * CAMEO_BENCH_CSV=<path> also writes Figure 13's comparison as CSV for
 * plotting. The path is opened before the sweep, so an unwritable one
 * fails at once (exit 1) instead of after the whole run.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_common.hh"
#include "exp/paper.hh"

int
main()
{
    using namespace cameo;
    using namespace cameo::bench;

    const char *csv_path = std::getenv("CAMEO_BENCH_CSV");
    std::ofstream csv;
    if (csv_path != nullptr) {
        csv.open(csv_path, std::ios::trunc);
        if (!csv) {
            printCannotWrite("CAMEO_BENCH_CSV", csv_path);
            return 1;
        }
    }

    const std::vector<DesignPoint> points = paperPoints(benchConfig());
    const std::vector<WorkloadProfile> workloads = benchWorkloads();
    std::cout << "Reproducing the paper's evaluation: " << points.size()
              << " design points x " << workloads.size()
              << " workloads, one run each\n";
    const ResultMatrix matrix = runBenchMatrix(points, workloads);
    printPaperArtifacts(matrix, std::cout);

    if (csv_path != nullptr) {
        const bool written = writePaperCsv(csv, matrix);
        csv.close();
        if (!written || csv.fail()) {
            printCannotWrite("CAMEO_BENCH_CSV", csv_path);
            return 1;
        }
        std::cout << "\nwrote " << csv_path << "\n";
    }
    return 0;
}
