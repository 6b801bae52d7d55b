/**
 * @file
 * The four ablations beyond the paper's published data (LLP table
 * size, capacity ratio, CAMEO-Freq, refresh) from one sweep. Each
 * study declares the design points it reads and returns its printer.
 * A point equal to one already declared is run once and shared, so
 * the default Baseline, CAMEO and Cache serve every study whose
 * settings match benchConfig().
 */

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "stats/table.hh"
#include "util/math.hh"

namespace
{

using namespace cameo;
using Printer = std::function<void(const ResultMatrix &)>;

/** The fields the studies set; all others are benchConfig()'s. */
auto
studyFields(const SystemConfig &c)
{
    return std::tie(c.llt.kind, c.llt.predictor, c.llt.llpTableEntries,
                    c.stackedBytes, c.offchipBytes, c.stacked.tRefi,
                    c.stacked.tRfc, c.offchip.tRefi, c.offchip.tRfc);
}

/**
 * The label under which @p kind runs on @p config: that of an equal
 * point in @p points, else @p label, appended as a new point.
 */
std::string
addPoint(std::vector<DesignPoint> &points, const std::string &label,
         OrgKind kind, const SystemConfig &config)
{
    for (const DesignPoint &p : points) {
        if (p.kind == kind && studyFields(p.config) == studyFields(config))
            return p.label;
    }
    points.push_back({label, kind, config});
    return label;
}

/** A printed column headed @p label, showing @p kind on @p config. */
MatrixColumn
addColumn(std::vector<DesignPoint> &points, const std::string &label,
          OrgKind kind, const SystemConfig &config)
{
    return {label, addPoint(points, label, kind, config)};
}

/**
 * LLP table size. Section V claims "a 256-entry (8-bit index) table is
 * quite effective"; the sweep runs from a single shared register (1
 * entry, the paper's strawman "single LLR") up to 4K entries per core.
 */
Printer
llpTableStudy(const SystemConfig &base, std::vector<DesignPoint> &points)
{
    SystemConfig config = base;
    config.llt.kind = LltKind::CoLocated;
    config.llt.predictor = PredictorKind::Llp;
    // One Baseline serves every size: only CAMEO reads the LLP table.
    const std::string baseline =
        addPoint(points, "Baseline/LLP", OrgKind::Baseline, config);
    std::vector<std::pair<std::uint32_t, std::string>> sizes;
    for (const std::uint32_t entries : {1u, 16u, 64u, 256u, 1024u, 4096u}) {
        config.llt.llpTableEntries = entries;
        const std::string label = "CAMEO/" + std::to_string(entries);
        sizes.emplace_back(entries,
                           addPoint(points, label, OrgKind::Cameo, config));
    }
    return [baseline, sizes](const ResultMatrix &matrix) {
        std::cout << "Ablation: LLP table size (per core)\n";
        TextTable table("LLP table-size sweep (geometric means over " +
                        std::to_string(matrix.workloads.size()) +
                        " workloads)");
        table.setHeader({"Entries/core", "Storage/core", "Gmean speedup",
                         "Mean accuracy%"});
        const std::size_t b = matrix.pointIndex(baseline);
        for (const auto &[entries, label] : sizes) {
            const std::size_t p = matrix.pointIndex(label);
            std::vector<double> accuracies;
            for (std::size_t w = 0; w < matrix.workloads.size(); ++w)
                accuracies.push_back(100.0 * matrix.at(p, w).llpAccuracy);
            table.addRow({TextTable::cell(std::uint64_t{entries}),
                          std::to_string(entries * 2 / 8) + " B",
                          TextTable::cell(gmeanSpeedup(matrix, b, p)),
                          TextTable::cell(arithmeticMean(accuracies), 1)});
        }
        table.print(std::cout);
    };
}

/**
 * Stacked DRAM as a fraction of total memory. The paper fixes stacked
 * at 25% ("a quarter or even half of the overall capacity"); the sweep
 * varies the split at constant total capacity, which also varies the
 * congruence-group size K = total/stacked and the number of off-chip
 * candidates the LLP must choose among.
 */
Printer
capacityRatioStudy(const SystemConfig &base,
                   std::vector<DesignPoint> &points)
{
    struct Row
    {
        std::uint64_t frac;
        std::string baseline, cameo, cache;
    };
    const std::uint64_t total = base.totalMemoryBytes();
    // Each fraction is its own machine, Baseline included: it changes
    // the off-chip capacity every organization sees.
    std::vector<Row> rows;
    for (const std::uint64_t frac : {8u, 4u, 2u}) {
        SystemConfig config = base;
        config.stackedBytes = total / frac;
        config.offchipBytes = total - config.stackedBytes;
        const std::string prefix = "1/" + std::to_string(frac) + " ";
        const auto add = [&](const char *org, OrgKind kind) {
            return addPoint(points, prefix + org, kind, config);
        };
        rows.push_back({frac, add("Baseline", OrgKind::Baseline),
                        add("CAMEO", OrgKind::Cameo),
                        add("Cache", OrgKind::AlloyCache)});
    }
    return [total, rows](const ResultMatrix &matrix) {
        std::cout << "Ablation: stacked fraction of total memory "
                     "(constant total "
                  << (total >> 20) << " MB)\n";
        TextTable table("Capacity-ratio sweep (geometric means over " +
                        std::to_string(matrix.workloads.size()) +
                        " workloads)");
        table.setHeader({"Stacked", "K", "Gmean CAMEO", "Gmean Cache",
                         "Mean stacked-svc%"});
        for (const Row &row : rows) {
            const std::size_t b = matrix.pointIndex(row.baseline);
            const std::size_t r = matrix.pointIndex(row.cameo);
            const std::size_t c = matrix.pointIndex(row.cache);
            std::vector<double> svc;
            for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
                svc.push_back(100.0 *
                              matrix.at(r, w).stackedServiceFraction());
            }
            table.addRow({"1/" + std::to_string(row.frac),
                          TextTable::cell(row.frac),
                          TextTable::cell(gmeanSpeedup(matrix, b, r)),
                          TextTable::cell(gmeanSpeedup(matrix, b, c)),
                          TextTable::cell(arithmeticMean(svc), 1)});
        }
        table.print(std::cout);
        std::cout << "\nNote: larger stacked fractions raise CAMEO's "
                     "stacked-service rate and shrink K; the baseline also "
                     "shrinks (less off-chip), so gains compound.\n";
    };
}

/**
 * CAMEO vs CAMEO-Freq (Section VI-D's closing suggestion:
 * frequency-directed swap admission). The filter should help the
 * migration-hostile workloads (poor spatial/temporal locality means
 * most swaps never pay off) and be neutral where CAMEO already keeps
 * its stacked slots hot.
 */
Printer
cameoFreqStudy(const SystemConfig &base, std::vector<DesignPoint> &points)
{
    const std::string baseline =
        addPoint(points, "Baseline", OrgKind::Baseline, base);
    const std::vector<MatrixColumn> columns{
        addColumn(points, "CAMEO", OrgKind::Cameo, base),
        addColumn(points, "CAMEO-Freq", OrgKind::CameoFreq, base),
    };
    return [baseline, columns](const ResultMatrix &matrix) {
        std::cout << "Ablation: frequency-directed swap admission "
                     "(Section VI-D extension)\n";
        printSpeedupTable("CAMEO vs CAMEO-Freq", matrix, baseline, columns,
                          std::cout);
        std::cout << "\nOff-chip write traffic saved by the filter:\n";
        const std::size_t cameo = matrix.pointIndex(columns[0].point);
        const std::size_t freq = matrix.pointIndex(columns[1].point);
        for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
            const double stock =
                static_cast<double>(matrix.at(cameo, w).offchipBytes);
            const double filtered =
                static_cast<double>(matrix.at(freq, w).offchipBytes);
            std::cout << "  " << matrix.workloads[w].name << ": "
                      << TextTable::cell(100.0 * (1.0 - filtered / stock), 1)
                      << "% fewer off-chip bytes\n";
        }
    };
}

/**
 * DRAM refresh. Table I does not specify refresh parameters, so the
 * default leaves refresh unmodelled; this study quantifies what
 * DDR3-class refresh (tREFI 7.8us, tRFC 350ns, a ~4.5% duty cycle)
 * does to the headline comparison.
 */
Printer
refreshStudy(const SystemConfig &base, std::vector<DesignPoint> &points)
{
    SystemConfig refreshed = base;
    refreshed.offchip.enableDdr3Refresh();
    refreshed.stacked.enableDdr3Refresh();
    const std::string baseline =
        addPoint(points, "Baseline", OrgKind::Baseline, base);
    const std::vector<MatrixColumn> columns{
        addColumn(points, "Cache", OrgKind::AlloyCache, base),
        addColumn(points, "Cache+refresh", OrgKind::AlloyCache, refreshed),
        addColumn(points, "CAMEO", OrgKind::Cameo, base),
        addColumn(points, "CAMEO+refresh", OrgKind::Cameo, refreshed),
    };
    return [baseline, columns](const ResultMatrix &matrix) {
        std::cout << "Ablation: DDR3-class refresh on both memories\n"
                  << "(baseline runs without refresh in both columns, so "
                     "the +refresh columns show the design under refresh "
                     "against the same reference)\n";
        printSpeedupTable("Refresh ablation", matrix, baseline, columns,
                          std::cout);
    };
}

} // namespace

int
main()
{
    using namespace cameo::bench;

    const SystemConfig base = benchConfig();
    // The default points first, so the studies that share them read
    // them under their organization names.
    std::vector<DesignPoint> points;
    for (const OrgKind kind :
         {OrgKind::Baseline, OrgKind::Cameo, OrgKind::AlloyCache})
        addPoint(points, orgKindName(kind), kind, base);
    const std::vector<Printer> studies{
        llpTableStudy(base, points),
        capacityRatioStudy(base, points),
        cameoFreqStudy(base, points),
        refreshStudy(base, points),
    };
    const ResultMatrix matrix = runBenchMatrix(points, benchWorkloads());
    for (const Printer &print : studies)
        print(matrix);
    return 0;
}
