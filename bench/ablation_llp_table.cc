/**
 * @file
 * Ablation (beyond the paper's published data): Line Location Predictor
 * table size. Section V claims "a 256-entry (8-bit index) table is
 * quite effective"; this sweep shows the accuracy/speedup curve from a
 * single shared register (1 entry — the paper's strawman "single LLR")
 * up to 4K entries per core.
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

    SystemConfig base = benchConfig();
    base.llt.kind = LltKind::CoLocated;
    base.llt.predictor = PredictorKind::Llp;
    const auto workloads = benchWorkloads();

    std::cout << "Ablation: LLP table size (per core)\n";

    TextTable table("LLP table-size sweep (geometric means over " +
                    std::to_string(workloads.size()) + " workloads)");
    table.setHeader({"Entries/core", "Storage/core", "Gmean speedup",
                     "Mean accuracy%"});

    // One Baseline serves every size: only CAMEO reads the LLP table.
    const std::vector<std::uint32_t> sizes{1, 16, 64, 256, 1024, 4096};
    std::vector<DesignPoint> points{{"Baseline", OrgKind::Baseline, base}};
    for (const std::uint32_t entries : sizes) {
        SystemConfig config = base;
        config.llt.llpTableEntries = entries;
        points.push_back(
            {"CAMEO/" + std::to_string(entries), OrgKind::Cameo, config});
    }
    const ResultMatrix matrix = runBenchMatrix(points, workloads);

    const std::size_t baseline = matrix.pointIndex("Baseline");
    for (const std::uint32_t entries : sizes) {
        const std::size_t p =
            matrix.pointIndex("CAMEO/" + std::to_string(entries));
        std::vector<double> accuracies;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            accuracies.push_back(100.0 * matrix.at(p, w).llpAccuracy);
        table.addRow({TextTable::cell(std::uint64_t{entries}),
                      std::to_string(entries * 2 / 8) + " B",
                      TextTable::cell(gmeanSpeedup(matrix, baseline, p)),
                      TextTable::cell(arithmeticMean(accuracies), 1)});
    }
    table.print(std::cout);
    return 0;
}
