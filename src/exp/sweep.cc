#include "exp/sweep.hh"

#include <cstdio>
#include <deque>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "exp/stopwatch.hh"
#include "util/env.hh"
#include "util/rng.hh"

namespace cameo
{

namespace
{

/**
 * Per-worker job-index deques with stealing. The owner pops from the
 * front of its own deque; an idle worker steals from the back of the
 * first non-empty victim. Jobs never spawn jobs, so once every deque
 * is empty the sweep is over and workers simply return.
 */
class WorkStealingScheduler
{
  public:
    WorkStealingScheduler(std::size_t num_jobs, unsigned workers,
                          std::uint64_t shuffle_seed)
        : queues_(workers)
    {
        std::vector<std::size_t> order(num_jobs);
        std::iota(order.begin(), order.end(), std::size_t{0});
        if (shuffle_seed != 0) {
            // Deterministic Fisher-Yates driven by the repo Rng, so a
            // given seed always produces the same submission order.
            Rng rng(shuffle_seed);
            for (std::size_t i = num_jobs; i > 1; --i)
                std::swap(order[i - 1], order[rng.next(i)]);
        }
        for (auto &queue : queues_)
            queue = std::make_unique<Queue>();
        for (std::size_t i = 0; i < order.size(); ++i)
            queues_[i % workers]->jobs.push_back(order[i]);
    }

    /** Next job for @p worker (own queue, then stealing); false when
     *  every queue is drained. */
    bool
    take(unsigned worker, std::size_t &out)
    {
        if (popFront(*queues_[worker], out))
            return true;
        for (std::size_t v = 1; v < queues_.size(); ++v) {
            const std::size_t victim = (worker + v) % queues_.size();
            if (popBack(*queues_[victim], out))
                return true;
        }
        return false;
    }

  private:
    struct Queue
    {
        std::mutex mutex;
        std::deque<std::size_t> jobs;
    };

    static bool
    popFront(Queue &queue, std::size_t &out)
    {
        const std::lock_guard<std::mutex> lock(queue.mutex);
        if (queue.jobs.empty())
            return false;
        out = queue.jobs.front();
        queue.jobs.pop_front();
        return true;
    }

    static bool
    popBack(Queue &queue, std::size_t &out)
    {
        const std::lock_guard<std::mutex> lock(queue.mutex);
        if (queue.jobs.empty())
            return false;
        out = queue.jobs.back();
        queue.jobs.pop_back();
        return true;
    }

    std::vector<std::unique_ptr<Queue>> queues_;
};

} // namespace

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
    WorkStealingScheduler scheduler(jobs.size(), workers,
                                    options_.shuffleSeed);

    const auto worker_loop = [&](unsigned worker) {
        std::size_t idx = 0;
        while (scheduler.take(worker, idx)) {
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
        worker_loop(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker_loop, w);
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

std::vector<SpeedupRow>
runComparison(const SystemConfig &base,
              std::span<const DesignPoint> points,
              std::span<const WorkloadProfile> workloads,
              const SweepOptions &options)
{
    // Job layout: for each workload, the baseline run followed by one
    // run per design point. The flat index encodes the (row, column)
    // slot, so reassembly below is pure arithmetic.
    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size() * (points.size() + 1));
    for (const WorkloadProfile &wl : workloads) {
        jobs.push_back(
            {wl.name + "/baseline", [&base, wl] {
                 return runWorkload(base, OrgKind::Baseline, wl);
             }});
        for (const DesignPoint &point : points) {
            jobs.push_back(
                {wl.name + "/" + point.label, [&point, wl] {
                     return runWorkload(point.config, point.kind, wl);
                 }});
        }
    }

    SweepRunner runner(options);
    std::vector<RunResult> results = runner.run(std::move(jobs));

    std::vector<SpeedupRow> rows;
    rows.reserve(workloads.size());
    const std::size_t stride = points.size() + 1;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        SpeedupRow row;
        row.workload = workloads[w];
        row.baseline = std::move(results[w * stride]);
        row.runs.reserve(points.size());
        for (std::size_t p = 0; p < points.size(); ++p)
            row.runs.push_back(std::move(results[w * stride + 1 + p]));
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace cameo
