/**
 * @file
 * Ablation (beyond the paper's published data): stacked DRAM as a
 * fraction of total memory. The paper fixes stacked at 25% ("a quarter
 * or even half of the overall capacity"); this sweep varies the split
 * at constant total capacity, which also varies the congruence-group
 * size K = total/stacked and the number of off-chip candidates the LLP
 * must choose among.
 */

#include <iostream>

#include "bench_common.hh"
#include "stats/table.hh"
#include "util/math.hh"

int
main()
{
    using namespace cameo;
    using namespace cameo::bench;

    const SystemConfig base = benchConfig();
    const auto workloads = benchWorkloads();
    const std::uint64_t total = base.totalMemoryBytes();

    std::cout << "Ablation: stacked fraction of total memory "
                 "(constant total " << (total >> 20) << " MB)\n";

    TextTable table("Capacity-ratio sweep (geometric means over " +
                    std::to_string(workloads.size()) + " workloads)");
    table.setHeader({"Stacked", "K", "Gmean CAMEO", "Gmean Cache",
                     "Mean stacked-svc%"});

    // Each fraction is its own machine, Baseline included: it changes
    // the off-chip capacity every organization sees.
    const std::vector<std::uint64_t> fracs{8, 4, 2};
    const std::vector<std::pair<std::string, OrgKind>> orgs{
        {"Baseline", OrgKind::Baseline},
        {"CAMEO", OrgKind::Cameo},
        {"Cache", OrgKind::AlloyCache},
    };
    std::vector<DesignPoint> points;
    for (const std::uint64_t frac : fracs) {
        SystemConfig config = base;
        config.stackedBytes = total / frac;
        config.offchipBytes = total - config.stackedBytes;
        for (const auto &[label, kind] : orgs) {
            points.push_back(
                {"1/" + std::to_string(frac) + " " + label, kind, config});
        }
    }
    const ResultMatrix matrix = runBenchMatrix(points, workloads);

    for (const std::uint64_t frac : fracs) {
        const std::string prefix = "1/" + std::to_string(frac) + " ";
        const std::size_t b = matrix.pointIndex(prefix + "Baseline");
        const std::size_t r = matrix.pointIndex(prefix + "CAMEO");
        const std::size_t c = matrix.pointIndex(prefix + "Cache");
        std::vector<double> svc;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            svc.push_back(100.0 * matrix.at(r, w).stackedServiceFraction());
        table.addRow({"1/" + std::to_string(frac),
                      TextTable::cell(std::uint64_t{frac}),
                      TextTable::cell(gmeanSpeedup(matrix, b, r)),
                      TextTable::cell(gmeanSpeedup(matrix, b, c)),
                      TextTable::cell(arithmeticMean(svc), 1)});
    }
    table.print(std::cout);
    std::cout << "\nNote: larger stacked fractions raise CAMEO's "
                 "stacked-service rate and shrink K; the baseline also "
                 "shrinks (less off-chip), so gains compound.\n";
    return 0;
}
