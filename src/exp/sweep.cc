#include "exp/sweep.hh"

#include <atomic>
#include <cstdio>
#include <exception>
#include <iostream>
#include <numeric>
#include <thread>
#include <utility>

#include "exp/stopwatch.hh"
#include "util/env.hh"
#include "util/rng.hh"

namespace cameo
{

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    std::string error;
    if (const auto env = envUint("CAMEO_BENCH_JOBS", &error)) {
        if (*env != 0)
            return static_cast<unsigned>(*env);
        std::cerr << "warning: CAMEO_BENCH_JOBS: expected a job count "
                     ">= 1, got '0' (using auto)\n";
    } else if (!error.empty()) {
        std::cerr << "warning: " << error << " (using auto)\n";
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

std::vector<RunResult>
SweepRunner::run(std::vector<SweepJob> jobs)
{
    telemetry_ = SweepTelemetry{};
    telemetry_.runs = jobs.size();
    telemetry_.jobSeconds.assign(jobs.size(), 0.0);
    if (jobs.empty()) {
        telemetry_.workers = 0;
        return {};
    }

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(resolveJobs(options_.jobs), jobs.size()));
    telemetry_.workers = workers;
    if (options_.progress != nullptr)
        options_.progress->setTotal(jobs.size());

    std::vector<RunResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());

    // Execution order: submission order, or a deterministic
    // Fisher-Yates permutation of it driven by the repo Rng.
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (options_.shuffleSeed != 0) {
        Rng rng(options_.shuffleSeed);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.next(i)]);
    }

    // Jobs are whole simulations, so one shared cursor is all the
    // scheduling a worker needs: it claims the next unstarted job
    // until none is left.
    std::atomic<std::size_t> next{0};
    const auto worker_loop = [&] {
        for (std::size_t k = next++; k < order.size(); k = next++) {
            const std::size_t idx = order[k];
            Stopwatch watch;
            try {
                results[idx] = jobs[idx].run();
            } catch (...) {
                errors[idx] = std::current_exception();
            }
            telemetry_.jobSeconds[idx] = watch.seconds();
            if (options_.progress != nullptr) {
                options_.progress->jobFinished(
                    jobs[idx].label, telemetry_.jobSeconds[idx]);
            }
        }
    };

    Stopwatch wall;
    if (workers == 1) {
        // Serial reference path: no threads, same code path otherwise.
        worker_loop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker_loop);
        for (std::thread &t : pool)
            t.join();
    }
    telemetry_.wallSeconds = wall.seconds();

    if (options_.progress != nullptr) {
        char summary[128];
        std::snprintf(summary, sizeof(summary),
                      "sweep: %zu runs in %.2fs (%.2f runs/s, jobs=%u)",
                      telemetry_.runs, telemetry_.wallSeconds,
                      telemetry_.runsPerSecond(), workers);
        options_.progress->line(summary);
    }

    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace cameo
