/**
 * @file
 * Ablation: DRAM refresh. Table I does not specify refresh parameters,
 * so the reproduction's default leaves refresh unmodelled; this bench
 * quantifies what DDR3-class refresh (tREFI 7.8us, tRFC 350ns — a
 * ~4.5% duty cycle) does to the headline comparison.
 */

#include <iostream>

#include "bench_common.hh"

int
main()
{
    using namespace cameo;
    using namespace cameo::bench;

    const SystemConfig plain = benchConfig();

    SystemConfig refreshed = plain;
    refreshed.offchip.tRefi = 6240; // 7.8us @ 800MHz bus
    refreshed.offchip.tRfc = 280;   // 350ns
    refreshed.stacked.tRefi = 12480; // 7.8us @ 1.6GHz bus
    refreshed.stacked.tRfc = 560;

    const std::vector<DesignPoint> points{
        {"Baseline", OrgKind::Baseline, plain},
        {"Cache", OrgKind::AlloyCache, plain},
        {"Cache+refresh", OrgKind::AlloyCache, refreshed},
        {"CAMEO", OrgKind::Cameo, plain},
        {"CAMEO+refresh", OrgKind::Cameo, refreshed},
    };
    const std::vector<MatrixColumn> columns{
        {"Cache", "Cache"},
        {"Cache+refresh", "Cache+refresh"},
        {"CAMEO", "CAMEO"},
        {"CAMEO+refresh", "CAMEO+refresh"},
    };
    const auto workloads = benchWorkloads();

    std::cout << "Ablation: DDR3-class refresh on both memories\n"
              << "(baseline runs without refresh in both columns, so "
                 "the +refresh columns show the design under refresh "
                 "against the same reference)\n";
    const ResultMatrix matrix = runBenchMatrix(points, workloads);
    printSpeedupTable("Refresh ablation", matrix, "Baseline", columns,
                      std::cout);
    return 0;
}
