#include "exp/paper.hh"

#include <array>
#include <cstdint>
#include <string>

#include "energy/power_model.hh"
#include "stats/table.hh"
#include "util/math.hh"

namespace cameo
{

namespace
{

// Only CameoOrg reads the LLT and predictor settings. The other points
// carry CAMEO's (Co-Located + LLP) so that every point states them.
constexpr LltKind kCoLocated = LltKind::CoLocated;
constexpr PredictorKind kLlp = PredictorKind::Llp;
constexpr PredictorKind kSam = PredictorKind::Sam;

/** One design point of the paper's evaluation, as a config delta. */
struct PaperPoint
{
    std::string_view label;
    OrgKind kind;
    LltKind llt;
    PredictorKind predictor;
};

constexpr PaperPoint kPoints[] = {
    {kPaperBaseline, OrgKind::Baseline, kCoLocated, kLlp},
    {"Cache", OrgKind::AlloyCache, kCoLocated, kLlp},
    {"DoubleUse", OrgKind::DoubleUse, kCoLocated, kLlp},
    {"TLM-Static", OrgKind::TlmStatic, kCoLocated, kLlp},
    {"TLM-Dynamic", OrgKind::TlmDynamic, kCoLocated, kLlp},
    {"TLM-Freq", OrgKind::TlmFreq, kCoLocated, kLlp},
    {"TLM-Oracle", OrgKind::TlmOracle, kCoLocated, kLlp},
    // CAMEO as evaluated (Fig 13), then its Fig 9 and Fig 12 variants.
    {"CAMEO", OrgKind::Cameo, kCoLocated, kLlp},
    {"CAMEO-SAM", OrgKind::Cameo, kCoLocated, kSam},
    {"CAMEO-Perfect", OrgKind::Cameo, kCoLocated, PredictorKind::Perfect},
    {"CAMEO-Ideal-SAM", OrgKind::Cameo, LltKind::Ideal, kSam},
    {"CAMEO-Embedded-SAM", OrgKind::Cameo, LltKind::Embedded, kSam},
};

/** Per-workload values of one column, split by workload category. */
struct CategorySamples
{
    std::vector<double> capacity, latency, all;

    void add(WorkloadCategory category, double value)
    {
        if (category == WorkloadCategory::CapacityLimited)
            capacity.push_back(value);
        else
            latency.push_back(value);
        all.push_back(value);
    }
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return static_cast<double>(num) / static_cast<double>(den);
}

/** Figure 13's columns: the paper's headline comparison. */
const std::vector<MatrixColumn> &
fig13Columns()
{
    static const std::vector<MatrixColumn> columns{
        {"Cache", "Cache"},
        {"TLM-Static", "TLM-Static"},
        {"TLM-Dynamic", "TLM-Dynamic"},
        {"CAMEO", "CAMEO"},
        {"DoubleUse", "DoubleUse"},
    };
    return columns;
}

void
printSpeedups(const PaperArtifact &artifact, const ResultMatrix &matrix,
              std::ostream &os)
{
    printSpeedupTable(std::string(artifact.title), matrix, kPaperBaseline,
                      artifact.columns, os);
}

/** Table II: measured MPKI and scaled footprint of each workload. */
void
printWorkloads(const PaperArtifact &artifact, const ResultMatrix &matrix,
               std::ostream &os)
{
    const std::size_t p = matrix.pointIndex(artifact.columns.front().point);
    const SystemConfig &config = matrix.points[p].config;
    const std::string scale =
        std::to_string(static_cast<int>(config.scaleFactor));
    TextTable table(std::string(artifact.title) + " (scaled x1/" + scale +
                    ")");
    table.setHeader({"Workload", "Category", "Paper MPKI", "Meas MPKI",
                     "Paper footprint", "Scaled footprint", "Lines/page",
                     "Faults"});
    for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
        const WorkloadProfile &wl = matrix.workloads[w];
        const RunResult &r = matrix.at(p, w);
        const GeneratorParams gp = config.generatorParamsFor(wl);
        const double footprint_mb = static_cast<double>(gp.footprintBytes) *
                                    config.numCores / (1 << 20);
        table.addRow({wl.name, categoryName(wl.category),
                      TextTable::cell(wl.paperMpki, 1),
                      TextTable::cell(r.mpki(), 1),
                      TextTable::cell(wl.paperFootprintGb, 1) + " GB",
                      TextTable::cell(footprint_mb, 1) + " MB",
                      TextTable::cell(std::uint64_t{wl.linesPerPage}),
                      TextTable::cell(r.majorFaults)});
    }
    table.print(os);
}

/** Table III: the five LLP cases, aggregated over every workload. */
void
printLlpAccuracy(const PaperArtifact &artifact, const ResultMatrix &matrix,
                 std::ostream &os)
{
    const std::size_t n = artifact.columns.size();
    std::vector<std::array<double, 5>> percent(n);
    std::vector<double> accuracy(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t p = matrix.pointIndex(artifact.columns[k].point);
        std::uint64_t cases[5] = {0, 0, 0, 0, 0};
        std::uint64_t total = 0;
        for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
            const RunResult &r = matrix.at(p, w);
            for (int c = 0; c < 5; ++c) {
                cases[c] += r.llpCases[c];
                total += r.llpCases[c];
            }
        }
        for (int c = 0; c < 5; ++c)
            percent[k][c] = total ? 100.0 * cases[c] / total : 0.0;
        accuracy[k] = percent[k][0] + percent[k][3];
    }

    TextTable table(std::string(artifact.title));
    std::vector<std::string> header{"Serviced by", "Prediction"};
    for (const MatrixColumn &column : artifact.columns)
        header.push_back(column.heading);
    table.setHeader(std::move(header));
    // The paper's row order: cases 1 to 5.
    const char *rows[5][2] = {
        {"Stacked", "Stacked"},        {"Stacked", "Off-chip"},
        {"Off-chip", "Stacked"},       {"Off-chip", "Off-chip (OK)"},
        {"Off-chip", "Off-chip (Wrong)"},
    };
    for (int c = 0; c < 5; ++c) {
        std::vector<std::string> cells{rows[c][0], rows[c][1]};
        for (std::size_t k = 0; k < n; ++k)
            cells.push_back(TextTable::cell(percent[k][c], 1));
        table.addRow(std::move(cells));
    }
    std::vector<std::string> cells{"Overall Accuracy", ""};
    for (std::size_t k = 0; k < n; ++k)
        cells.push_back(TextTable::cell(accuracy[k], 1));
    table.addRow(std::move(cells));
    table.print(os);
}

/** Table IV: bytes per memory relative to the baseline, averaged per
 *  category (arithmetic mean of per-workload ratios, as the paper
 *  tabulates). */
void
printBandwidth(const PaperArtifact &artifact, const ResultMatrix &matrix,
               std::ostream &os)
{
    const std::size_t base = matrix.pointIndex(kPaperBaseline);
    TextTable table(std::string(artifact.title));
    table.setHeader({"Design", "Cap-Stacked", "Cap-Offchip", "Cap-Storage",
                     "Lat-Stacked", "Lat-Offchip"});
    for (const MatrixColumn &column : artifact.columns) {
        const std::size_t p = matrix.pointIndex(column.point);
        CategorySamples stacked, offchip, storage;
        for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
            const RunResult &b = matrix.at(base, w);
            const RunResult &r = matrix.at(p, w);
            const WorkloadCategory category = matrix.workloads[w].category;
            stacked.add(category, ratio(r.stackedBytes, b.offchipBytes));
            offchip.add(category, ratio(r.offchipBytes, b.offchipBytes));
            if (b.storageBytes > 0)
                storage.add(category, ratio(r.storageBytes, b.storageBytes));
        }
        table.addRow({column.heading,
                      TextTable::cell(arithmeticMean(stacked.capacity)) + "x",
                      TextTable::cell(arithmeticMean(offchip.capacity)) + "x",
                      TextTable::cell(arithmeticMean(storage.capacity)) + "x",
                      TextTable::cell(arithmeticMean(stacked.latency)) + "x",
                      TextTable::cell(arithmeticMean(offchip.latency)) + "x"});
    }
    table.print(os);
}

/** Figure 14: Section VI-C activity-based power and EDP. */
void
printEnergy(const PaperArtifact &artifact, const ResultMatrix &matrix,
            std::ostream &os)
{
    const std::size_t base = matrix.pointIndex(kPaperBaseline);
    TextTable table(std::string(artifact.title));
    table.setHeader({"Design", "Power-Cap", "Power-Lat", "Power-All",
                     "EDP-Cap", "EDP-Lat", "EDP-All"});
    for (const MatrixColumn &column : artifact.columns) {
        const std::size_t p = matrix.pointIndex(column.point);
        CategorySamples power, edp;
        for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
            const RunResult &b = matrix.at(base, w);
            const RunResult &r = matrix.at(p, w);
            EnergyInputs in;
            in.category = matrix.workloads[w].category;
            in.timeRatio = ratio(r.execTime, b.execTime);
            in.offchipByteRatio = ratio(r.offchipBytes, b.offchipBytes);
            in.stackedByteRatio = ratio(r.stackedBytes, b.offchipBytes);
            if (b.storageBytes > 0)
                in.storageByteRatio = ratio(r.storageBytes, b.storageBytes);
            power.add(in.category, normalizedPower(in).total());
            edp.add(in.category, normalizedEdp(in));
        }
        table.addRow({column.heading,
                      TextTable::cell(arithmeticMean(power.capacity)),
                      TextTable::cell(arithmeticMean(power.latency)),
                      TextTable::cell(arithmeticMean(power.all)),
                      TextTable::cell(arithmeticMean(edp.capacity)),
                      TextTable::cell(arithmeticMean(edp.latency)),
                      TextTable::cell(arithmeticMean(edp.all))});
    }
    table.print(os);
}

} // namespace

std::vector<DesignPoint>
paperPoints(const SystemConfig &base)
{
    std::vector<DesignPoint> points;
    for (const PaperPoint &p : kPoints) {
        SystemConfig config = base;
        config.llt.kind = p.llt;
        config.llt.predictor = p.predictor;
        points.push_back({std::string(p.label), p.kind, config});
    }
    return points;
}

const std::vector<PaperArtifact> &
paperArtifacts()
{
    static const std::vector<PaperArtifact> artifacts{
        {
            "Figure 2: Speedup over baseline",
            {
                {"Cache", "Cache"},
                {"TLM-Static", "TLM-Static"},
                {"TLM-Dynamic", "TLM-Dynamic"},
                {"DoubleUse", "DoubleUse"},
            },
            printSpeedups,
        },
        {
            "Table II: Workload characteristics",
            {
                {"Baseline", std::string(kPaperBaseline)},
            },
            printWorkloads,
        },
        {
            "Figure 9: Speedup of LLT designs",
            {
                {"Ideal-LLT", "CAMEO-Ideal-SAM"},
                {"Embedded-LLT", "CAMEO-Embedded-SAM"},
                {"CoLocated-LLT", "CAMEO-SAM"},
            },
            printSpeedups,
        },
        {
            "Figure 12: Location prediction",
            {
                {"SAM(no-pred)", "CAMEO-SAM"},
                {"LLP", "CAMEO"},
                {"Perfect", "CAMEO-Perfect"},
            },
            printSpeedups,
        },
        {
            "Table III: Accuracy of Line Location Predictor (percent of "
            "L3-miss reads)",
            {
                {"SAM", "CAMEO-SAM"},
                {"LLP", "CAMEO"},
                {"Perfect", "CAMEO-Perfect"},
            },
            printLlpAccuracy,
        },
        {
            "Figure 13: Speedup over baseline",
            fig13Columns(),
            printSpeedups,
        },
        {
            "Table IV: Bandwidth usage (normalized to baseline off-chip / "
            "storage bytes)",
            {
                {"Cache", "Cache"},
                {"TLM-Static", "TLM-Static"},
                {"TLM-Dynamic", "TLM-Dynamic"},
                {"CAMEO", "CAMEO"},
            },
            printBandwidth,
        },
        {
            "Figure 14: Normalized power and EDP (baseline = 1.00; EDP "
            "lower is better)",
            {
                {"Cache", "Cache"},
                {"TLM-Static", "TLM-Static"},
                {"TLM-Dynamic", "TLM-Dynamic"},
                {"CAMEO", "CAMEO"},
            },
            printEnergy,
        },
        {
            "Figure 15: Optimized placement",
            {
                {"TLM-Dynamic", "TLM-Dynamic"},
                {"TLM-Freq", "TLM-Freq"},
                {"TLM-Oracle", "TLM-Oracle"},
                {"CAMEO", "CAMEO"},
            },
            printSpeedups,
        },
    };
    return artifacts;
}

void
printPaperArtifacts(const ResultMatrix &matrix, std::ostream &os)
{
    for (const PaperArtifact &artifact : paperArtifacts()) {
        os << "\n";
        artifact.print(artifact, matrix, os);
    }
}

bool
writePaperCsv(std::ostream &out, const ResultMatrix &matrix)
{
    return writeSpeedupCsv(out, matrix, kPaperBaseline, fig13Columns());
}

} // namespace cameo
