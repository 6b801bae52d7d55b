/**
 * @file
 * The result matrix: run every (design point x workload) pair once on
 * the parallel sweep engine, then read speedups, geometric means,
 * paper-style tables and CSV from the results. The baseline is an
 * ordinary design point; each reader names the point it normalizes
 * to. exp/paper.hh declares the paper's design points and prints its
 * figures and tables from one matrix.
 */

#ifndef CAMEO_EXP_EXPERIMENT_HH
#define CAMEO_EXP_EXPERIMENT_HH

#include <cstddef>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.hh"
#include "system/system.hh"

namespace cameo
{

/** One design point of a matrix: an organization plus its config. */
struct DesignPoint
{
    std::string label;
    OrgKind kind = OrgKind::Cameo;
    SystemConfig config;
};

/** One printed column: its heading and the label of the point shown. */
struct MatrixColumn
{
    std::string heading;
    std::string point;
};

/** Every design point run over every workload, once each. */
struct ResultMatrix
{
    std::vector<DesignPoint> points;
    std::vector<WorkloadProfile> workloads;
    /** Workload-major: the run of point p on workload w is
     *  runs[w * points.size() + p]. */
    std::vector<RunResult> runs;

    /** Index of the point labelled @p label; throws std::out_of_range
     *  when no point has that label. */
    std::size_t pointIndex(std::string_view label) const;

    /** The run of point @p point on workload @p workload. */
    const RunResult &at(std::size_t point, std::size_t workload) const;

    /** Speedup of @p point over @p baseline on @p workload. */
    double speedup(std::size_t baseline, std::size_t point,
                   std::size_t workload) const;
};

/**
 * Run every point over every workload on the sweep engine. Results are
 * bit-identical for any worker count or submission shuffle; progress
 * labels read "<workload>/<point>".
 */
ResultMatrix runMatrix(std::span<const DesignPoint> points,
                       std::span<const WorkloadProfile> workloads,
                       const SweepOptions &options);

/** Geometric-mean speedup of @p point over @p baseline across every
 *  workload, optionally restricted to one category (0 when the
 *  category has no workloads). */
double gmeanSpeedup(const ResultMatrix &matrix, std::size_t baseline,
                    std::size_t point);
double gmeanSpeedup(const ResultMatrix &matrix, std::size_t baseline,
                    std::size_t point, WorkloadCategory category);

/**
 * Print a Figure 13-style speedup table over @p baseline: one row per
 * workload, then Gmean rows for each category and overall.
 */
void printSpeedupTable(const std::string &title,
                       const ResultMatrix &matrix,
                       std::string_view baseline,
                       std::span<const MatrixColumn> columns,
                       std::ostream &os);

/**
 * Write one CSV row per workload: name, category, baseline exec time,
 * then per column the exec time, speedup and module byte counters.
 * Returns false when @p out is or goes bad.
 */
bool writeSpeedupCsv(std::ostream &out, const ResultMatrix &matrix,
                     std::string_view baseline,
                     std::span<const MatrixColumn> columns);

} // namespace cameo

#endif // CAMEO_EXP_EXPERIMENT_HH
