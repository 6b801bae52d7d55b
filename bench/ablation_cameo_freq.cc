/**
 * @file
 * Ablation: CAMEO vs CAMEO-Freq (Section VI-D's closing suggestion —
 * frequency-directed swap admission). The filter should help the
 * migration-hostile workloads (poor spatial/temporal locality means
 * most swaps never pay off) and be neutral where CAMEO already keeps
 * its stacked slots hot.
 */

#include <iostream>

#include "bench_common.hh"
#include "stats/table.hh"

int
main()
{
    using namespace cameo;
    using namespace cameo::bench;

    const SystemConfig config = benchConfig();
    const std::vector<DesignPoint> points{
        {"Baseline", OrgKind::Baseline, config},
        {"CAMEO", OrgKind::Cameo, config},
        {"CAMEO-Freq", OrgKind::CameoFreq, config},
    };
    const std::vector<MatrixColumn> columns{{"CAMEO", "CAMEO"},
                                            {"CAMEO-Freq", "CAMEO-Freq"}};
    const auto workloads = benchWorkloads();

    std::cout << "Ablation: frequency-directed swap admission "
                 "(Section VI-D extension)\n";
    const ResultMatrix matrix = runBenchMatrix(points, workloads);
    printSpeedupTable("CAMEO vs CAMEO-Freq", matrix, "Baseline", columns,
                      std::cout);

    std::cout << "\nOff-chip write traffic saved by the filter:\n";
    const std::size_t cameo = matrix.pointIndex("CAMEO");
    const std::size_t cameo_freq = matrix.pointIndex("CAMEO-Freq");
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const double stock =
            static_cast<double>(matrix.at(cameo, w).offchipBytes);
        const double freq =
            static_cast<double>(matrix.at(cameo_freq, w).offchipBytes);
        std::cout << "  " << workloads[w].name << ": "
                  << TextTable::cell(100.0 * (1.0 - freq / stock), 1)
                  << "% fewer off-chip bytes\n";
    }
    return 0;
}
