#include "exp/experiment.hh"

#include <cassert>
#include <stdexcept>

#include "stats/table.hh"
#include "util/math.hh"

namespace cameo
{

std::size_t
ResultMatrix::pointIndex(std::string_view label) const
{
    for (std::size_t p = 0; p < points.size(); ++p) {
        if (points[p].label == label)
            return p;
    }
    throw std::out_of_range("no design point labelled '" +
                            std::string(label) + "'");
}

const RunResult &
ResultMatrix::at(std::size_t point, std::size_t workload) const
{
    assert(point < points.size() && workload < workloads.size());
    return runs[workload * points.size() + point];
}

double
ResultMatrix::speedup(std::size_t baseline, std::size_t point,
                      std::size_t workload) const
{
    return cameo::speedup(
        static_cast<double>(at(baseline, workload).execTime),
        static_cast<double>(at(point, workload).execTime));
}

ResultMatrix
runMatrix(std::span<const DesignPoint> points,
          std::span<const WorkloadProfile> workloads,
          const SweepOptions &options)
{
    ResultMatrix matrix;
    matrix.points.assign(points.begin(), points.end());
    matrix.workloads.assign(workloads.begin(), workloads.end());

    // Submitted in storage order, so the results need no reassembly.
    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size() * points.size());
    for (const WorkloadProfile &wl : matrix.workloads) {
        for (const DesignPoint &point : matrix.points) {
            jobs.push_back({wl.name + "/" + point.label, [&point, &wl] {
                                return runWorkload(point.config,
                                                   point.kind, wl);
                            }});
        }
    }
    matrix.runs = SweepRunner(options).run(std::move(jobs));
    return matrix;
}

double
gmeanSpeedup(const ResultMatrix &matrix, std::size_t baseline,
             std::size_t point)
{
    std::vector<double> values;
    values.reserve(matrix.workloads.size());
    for (std::size_t w = 0; w < matrix.workloads.size(); ++w)
        values.push_back(matrix.speedup(baseline, point, w));
    return geometricMean(values);
}

double
gmeanSpeedup(const ResultMatrix &matrix, std::size_t baseline,
             std::size_t point, WorkloadCategory category)
{
    std::vector<double> values;
    for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
        if (matrix.workloads[w].category == category)
            values.push_back(matrix.speedup(baseline, point, w));
    }
    return geometricMean(values);
}

void
printSpeedupTable(const std::string &title, const ResultMatrix &matrix,
                  std::string_view baseline,
                  std::span<const MatrixColumn> columns, std::ostream &os)
{
    const std::size_t base = matrix.pointIndex(baseline);
    std::vector<std::size_t> shown;
    TextTable table(title);
    std::vector<std::string> header{"Workload", "Category"};
    for (const MatrixColumn &column : columns) {
        header.push_back(column.heading);
        shown.push_back(matrix.pointIndex(column.point));
    }
    table.setHeader(std::move(header));

    for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
        const WorkloadProfile &wl = matrix.workloads[w];
        std::vector<std::string> cells{wl.name, categoryName(wl.category)};
        for (const std::size_t p : shown)
            cells.push_back(TextTable::cell(matrix.speedup(base, p, w)));
        table.addRow(std::move(cells));
    }

    const auto add_gmean_row = [&](const std::string &name, auto getter) {
        std::vector<std::string> cells{name, ""};
        for (const std::size_t p : shown) {
            const double g = getter(p);
            cells.push_back(g > 0.0 ? TextTable::cell(g) : "n/a");
        }
        table.addRow(std::move(cells));
    };
    add_gmean_row("Gmean-Capacity", [&](std::size_t p) {
        return gmeanSpeedup(matrix, base, p,
                            WorkloadCategory::CapacityLimited);
    });
    add_gmean_row("Gmean-Latency", [&](std::size_t p) {
        return gmeanSpeedup(matrix, base, p,
                            WorkloadCategory::LatencyLimited);
    });
    add_gmean_row("Gmean-ALL", [&](std::size_t p) {
        return gmeanSpeedup(matrix, base, p);
    });

    table.print(os);
}

bool
writeSpeedupCsv(std::ostream &out, const ResultMatrix &matrix,
                std::string_view baseline,
                std::span<const MatrixColumn> columns)
{
    const std::size_t base = matrix.pointIndex(baseline);
    std::vector<std::size_t> shown;
    out << "workload,category,baseline_exec";
    for (const MatrixColumn &column : columns) {
        const std::string &h = column.heading;
        out << "," << h << "_exec," << h << "_speedup," << h
            << "_stackedBytes," << h << "_offchipBytes," << h
            << "_storageBytes";
        shown.push_back(matrix.pointIndex(column.point));
    }
    out << "\n";

    for (std::size_t w = 0; w < matrix.workloads.size(); ++w) {
        const WorkloadProfile &wl = matrix.workloads[w];
        out << wl.name << "," << categoryName(wl.category) << ","
            << matrix.at(base, w).execTime;
        for (const std::size_t p : shown) {
            const RunResult &r = matrix.at(p, w);
            out << "," << r.execTime << "," << matrix.speedup(base, p, w)
                << "," << r.stackedBytes << "," << r.offchipBytes << ","
                << r.storageBytes;
        }
        out << "\n";
    }
    out.flush();
    return !out.fail();
}

} // namespace cameo
