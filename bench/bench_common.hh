/**
 * @file
 * Shared helpers for the bench binaries.
 *
 * Every bench runs on the scaled default configuration: paper_figures
 * regenerates the paper's evaluation, the others its ablations and
 * extensions. Trace length can be overridden with the
 * CAMEO_BENCH_ACCESSES environment variable (accesses per
 * core), a warmup prefix added with CAMEO_BENCH_WARMUP (accesses per
 * core, replayed at functional fidelity before the measured region —
 * DESIGN.md §13), and the workload set narrowed with
 * CAMEO_BENCH_WORKLOADS (comma-separated benchmark names) for quick
 * runs. All are parsed strictly: malformed numbers and unknown
 * workload names warn on stderr instead of being silently accepted or
 * dropped.
 *
 * Simulations execute on the parallel sweep engine (exp/sweep.hh);
 * CAMEO_BENCH_JOBS caps the worker threads (default: all hardware
 * threads). Results are bit-identical for any job count.
 */

#ifndef CAMEO_BENCH_BENCH_COMMON_HH
#define CAMEO_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep.hh"
#include "system/config.hh"
#include "trace/workloads.hh"
#include "util/env.hh"

namespace cameo::bench
{

/** Default config with the env-var trace-length override applied. */
inline SystemConfig
benchConfig()
{
    SystemConfig config = defaultConfig();
    std::string error;
    if (const auto accesses = envUint("CAMEO_BENCH_ACCESSES", &error))
        config.accessesPerCore = *accesses;
    if (!error.empty())
        std::cerr << "warning: " << error << " (using default "
                  << config.accessesPerCore << ")\n";
    // Warmup-heavy benches default to the functional fast path: the
    // warmup prefix updates architectural state exactly but skips all
    // timing, then the measured region runs detailed.
    error.clear();
    if (const auto warmup = envUint("CAMEO_BENCH_WARMUP", &error)) {
        config.warmupAccessesPerCore = *warmup;
        if (*warmup > 0)
            config.warmupPolicy = WarmupPolicy::Functional;
    }
    if (!error.empty())
        std::cerr << "warning: " << error << " (running without "
                     "warmup)\n";
    return config;
}

/** Workload list, optionally narrowed by CAMEO_BENCH_WORKLOADS. */
inline std::vector<WorkloadProfile>
benchWorkloads()
{
    const char *env = std::getenv("CAMEO_BENCH_WORKLOADS");
    if (env == nullptr)
        return allWorkloads();
    std::vector<std::string> unknown;
    std::vector<WorkloadProfile> out = workloadsByNames(env, &unknown);
    for (const std::string &name : unknown) {
        std::cerr << "warning: CAMEO_BENCH_WORKLOADS: unknown workload '"
                  << name << "' (ignored)\n";
    }
    if (out.empty()) {
        std::cerr << "warning: CAMEO_BENCH_WORKLOADS matched no "
                     "workloads; using all\n";
        return allWorkloads();
    }
    return out;
}

/** Print the error for a bench output named by @p env it cannot write. */
inline void
printCannotWrite(const char *env, const std::string &path)
{
    std::cerr << "error: " << env << ": cannot write '" << path << "'\n";
}

/**
 * Check, before a bench's sweep, that its output @p path can be
 * written, so an unwritable one fails at once instead of after the
 * whole run. The probe opens for append, which keeps an existing
 * file's bytes: an interrupted run leaves a committed BENCH_*.json as
 * it was. Prints the error naming @p env when the path is unwritable.
 */
inline bool
checkWritable(const char *env, const std::string &path)
{
    if (std::ofstream(path, std::ios::app))
        return true;
    printCannotWrite(env, path);
    return false;
}

/**
 * Run every design point over every workload with progress on stdout.
 * Benches read the results by point and workload (ResultMatrix).
 */
inline ResultMatrix
runBenchMatrix(std::span<const DesignPoint> points,
               std::span<const WorkloadProfile> workloads)
{
    ProgressReporter progress(&std::cout);
    SweepOptions options;
    options.progress = &progress;
    return runMatrix(points, workloads, options);
}

/**
 * Run a flat job list on the sweep engine with progress on stdout, for
 * the benches whose jobs are not one point on one workload: mix_study
 * runs mixes, and perf_queue reads each System's stats registry.
 * Results come back in submission order.
 */
inline std::vector<RunResult>
runSweep(std::vector<SweepJob> jobs)
{
    ProgressReporter progress(&std::cout);
    SweepOptions options;
    options.progress = &progress;
    return SweepRunner(options).run(std::move(jobs));
}

} // namespace cameo::bench

#endif // CAMEO_BENCH_BENCH_COMMON_HH
