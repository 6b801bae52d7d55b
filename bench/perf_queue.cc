/**
 * @file
 * Queued-timing contention bench: Blocking vs Queued execution time,
 * achieved off-chip bandwidth, and controller queue occupancy on the
 * bandwidth-heavy Table-IV workloads.
 *
 * An extension bench: it measures the *simulated machine*, not the
 * simulator's speed (perfbench/ does that): how much the DRAM
 * controller queues — the bounded in-service read window and the
 * posted-write drain — stretch execution relative to the
 * contention-free Blocking mode, and how deep the queues actually run
 * (p50/p95/p99 occupancy from the stats/distribution percentiles).
 *
 * Environment:
 *   CAMEO_BENCH_ACCESSES   accesses per core per run (default: the
 *                          shared bench default)
 *   CAMEO_BENCH_WORKLOADS  comma-separated workload override; default
 *                          is the bandwidth-heavy set below
 *   CAMEO_BENCH_JOBS       sweep worker threads
 *   CAMEO_BENCH_QUEUE_OUT  output JSON path (default BENCH_queue.json)
 *
 * Output: a stdout table plus BENCH_queue.json with one record per
 * (workload, organization), consumed by CI's extension-smoke
 * artifact upload and EXPERIMENTS.md's contention section.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "stats/table.hh"
#include "system/system.hh"

namespace
{

using namespace cameo;

/** Queued-mode controller telemetry pulled from one run's registry. */
struct QueueTelemetry
{
    double readDepthP50 = 0.0;
    double readDepthP95 = 0.0;
    double readDepthP99 = 0.0;
    double writeDepthP95 = 0.0;
    std::uint64_t queueFullStalls = 0;
    std::uint64_t writeDrains = 0;
};

/** One (workload, organization) comparison row. */
struct QueueResult
{
    std::string workload;
    std::string org;
    Tick execBlocking = 0;
    Tick execQueued = 0;
    std::uint64_t offchipBytes = 0;
    double bwBlocking = 0.0; ///< off-chip bytes per kilo-tick
    double bwQueued = 0.0;
    QueueTelemetry queued;

    double slowdown() const
    {
        return execBlocking > 0 ? static_cast<double>(execQueued) /
                                      static_cast<double>(execBlocking)
                                : 0.0;
    }
};

QueueTelemetry
collectTelemetry(StatRegistry &stats)
{
    QueueTelemetry t;
    if (const Distribution *d =
            stats.findDistribution("dram.offchip.readQueueDepth")) {
        t.readDepthP50 = d->percentile(0.50);
        t.readDepthP95 = d->percentile(0.95);
        t.readDepthP99 = d->percentile(0.99);
    }
    if (const Distribution *d =
            stats.findDistribution("dram.offchip.writeQueueDepth"))
        t.writeDepthP95 = d->percentile(0.95);
    if (const Counter *c =
            stats.findCounter("dram.offchip.queueFullStalls"))
        t.queueFullStalls = c->value();
    if (const Counter *c = stats.findCounter("dram.offchip.writeDrains"))
        t.writeDrains = c->value();
    return t;
}

/** Off-chip bytes per kilo-tick (a scale-free bandwidth figure). */
double
bandwidth(std::uint64_t bytes, Tick exec_time)
{
    return exec_time > 0
               ? 1000.0 * static_cast<double>(bytes) /
                     static_cast<double>(exec_time)
               : 0.0;
}

} // namespace

int
main()
{
    using namespace cameo::bench;

    SystemConfig blocking = benchConfig();
    blocking.timingMode = TimingMode::Blocking;
    SystemConfig queued = blocking;
    queued.timingMode = TimingMode::Queued;

    const char *out_env = std::getenv("CAMEO_BENCH_QUEUE_OUT");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_queue.json";

    // Bandwidth-heavy defaults: the Table-IV workloads with the most
    // DRAM traffic per instruction on each side of the category split.
    std::vector<WorkloadProfile> workloads;
    if (std::getenv("CAMEO_BENCH_WORKLOADS") != nullptr) {
        workloads = benchWorkloads();
    } else {
        for (const char *name : {"mcf", "GemsFDTD", "milc", "leslie3d"})
            workloads.push_back(*findWorkload(name));
    }

    const std::vector<std::pair<std::string, OrgKind>> orgs{
        {"Baseline", OrgKind::Baseline},
        {"Cache", OrgKind::AlloyCache},
        {"CAMEO", OrgKind::Cameo},
    };

    std::cout << "Queued-timing contention: Blocking vs Queued on "
                 "bandwidth-heavy workloads\n"
              << "(" << blocking.accessesPerCore << " accesses x "
              << blocking.numCores << " cores; queues: read window "
              << queued.dramQueues.readWindow << ", write depth "
              << queued.dramQueues.writeQueueDepth << ", drain "
              << queued.dramQueues.drainHighWatermark << "->"
              << queued.dramQueues.drainLowWatermark << ")\n\n";

    // Every (workload, org, mode) simulation is one sweep job; stats
    // land in per-job slots, so the sweep stays bit-deterministic.
    const std::size_t n = workloads.size() * orgs.size();
    std::vector<QueueResult> results(n);
    std::vector<QueueTelemetry> telemetry(n);
    std::vector<SweepJob> jobs;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t o = 0; o < orgs.size(); ++o) {
            const std::size_t slot = w * orgs.size() + o;
            const WorkloadProfile &wl = workloads[w];
            const OrgKind kind = orgs[o].second;
            jobs.push_back({wl.name + "/" + orgs[o].first + "/blocking",
                            [&, kind, &wl = workloads[w]] {
                                return runWorkload(blocking, kind, wl);
                            }});
            jobs.push_back({wl.name + "/" + orgs[o].first + "/queued",
                            [&, slot, kind, &wl = workloads[w]] {
                                System system(queued, kind, wl);
                                RunResult r = system.run();
                                telemetry[slot] =
                                    collectTelemetry(system.stats());
                                return r;
                            }});
        }
    }
    const std::vector<RunResult> runs = runSweep(std::move(jobs));

    TextTable table("Queued vs Blocking (off-chip bandwidth in "
                    "bytes/kilo-tick)");
    table.setHeader({"Workload", "Org", "Slowdown", "BW-Blk", "BW-Q",
                     "RdQ-p50", "RdQ-p95", "RdQ-p99", "WrQ-p95",
                     "Stalls", "Drains"});
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t o = 0; o < orgs.size(); ++o) {
            const std::size_t slot = w * orgs.size() + o;
            const RunResult &rb = runs[2 * slot];
            const RunResult &rq = runs[2 * slot + 1];
            QueueResult &res = results[slot];
            res.workload = workloads[w].name;
            res.org = orgs[o].first;
            res.execBlocking = rb.execTime;
            res.execQueued = rq.execTime;
            res.offchipBytes = rq.offchipBytes;
            res.bwBlocking = bandwidth(rb.offchipBytes, rb.execTime);
            res.bwQueued = bandwidth(rq.offchipBytes, rq.execTime);
            res.queued = telemetry[slot];
            table.addRow({res.workload, res.org,
                          TextTable::cell(res.slowdown()) + "x",
                          TextTable::cell(res.bwBlocking, 1),
                          TextTable::cell(res.bwQueued, 1),
                          TextTable::cell(res.queued.readDepthP50, 1),
                          TextTable::cell(res.queued.readDepthP95, 1),
                          TextTable::cell(res.queued.readDepthP99, 1),
                          TextTable::cell(res.queued.writeDepthP95, 1),
                          TextTable::cell(res.queued.queueFullStalls),
                          TextTable::cell(res.queued.writeDrains)});
        }
    }
    table.print(std::cout);

    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"perf_queue\",\n"
        << "  \"accesses_per_core\": " << blocking.accessesPerCore
        << ",\n"
        << "  \"num_cores\": " << blocking.numCores << ",\n"
        << "  \"read_window\": " << queued.dramQueues.readWindow << ",\n"
        << "  \"write_queue_depth\": " << queued.dramQueues.writeQueueDepth
        << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const QueueResult &r = results[i];
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "    {\"workload\": \"%s\", \"org\": \"%s\", "
            "\"exec_blocking\": %llu, \"exec_queued\": %llu, "
            "\"slowdown\": %.4f, "
            "\"bw_blocking_bytes_per_ktick\": %.2f, "
            "\"bw_queued_bytes_per_ktick\": %.2f, "
            "\"read_depth_p50\": %.2f, \"read_depth_p95\": %.2f, "
            "\"read_depth_p99\": %.2f, \"write_depth_p95\": %.2f, "
            "\"queue_full_stalls\": %llu, \"write_drains\": %llu}%s\n",
            r.workload.c_str(), r.org.c_str(),
            static_cast<unsigned long long>(r.execBlocking),
            static_cast<unsigned long long>(r.execQueued), r.slowdown(),
            r.bwBlocking, r.bwQueued, r.queued.readDepthP50,
            r.queued.readDepthP95, r.queued.readDepthP99,
            r.queued.writeDepthP95,
            static_cast<unsigned long long>(r.queued.queueFullStalls),
            static_cast<unsigned long long>(r.queued.writeDrains),
            i + 1 < results.size() ? "," : "");
        out << line;
    }
    out << "  ]\n}\n";
    out.close();
    std::cout << "\nwrote " << out_path << "\n";
    return out.good() ? 0 : 1;
}
