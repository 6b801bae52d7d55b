/**
 * @file
 * Shard-fleet scaling study: the same multi-workload Queued-pipeline
 * sweep run in-process (the reference) and as worker fleets of 1, 2, 4
 * and 8 shards, timing each and byte-comparing every fleet's merged
 * CSV against the reference.
 *
 * The binary is its own worker: the orchestrator re-executes argv[0]
 * with --worker --shards=N (the fleet appends --shard-index=i), and
 * the worker rebuilds the identical job list from the identical
 * environment — the job spec is a pure function of the bench env vars.
 *
 * Byte-identity is the gating half: the bench exits non-zero if any
 * fleet's CSV differs from the in-process reference. The scaling half
 * is host telemetry: wall times and speedups are recorded in the JSON
 * with the host's core count, and the 2.5x-at-4-shards target is only
 * enforced when the host has at least 4 cores — a 1-core container
 * cannot honestly demonstrate multi-process scaling, and pretending
 * otherwise would be fabrication.
 *
 * Environment:
 *   CAMEO_BENCH_ACCESSES   accesses per core per run (default 40000)
 *   CAMEO_BENCH_WORKLOADS  comma-separated workload override
 *                          (default: the first 8 of Table II)
 *   CAMEO_BENCH_SHARD_OUT  output JSON path (default BENCH_shard.json)
 *
 * Output: a stdout table plus BENCH_shard.json with the scaling curve,
 * consumed by CI's shard-smoke artifact upload and EXPERIMENTS.md's
 * sharding section.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "shard/fleet.hh"
#include "system/system.hh"
#include "util/env.hh"

namespace
{

using namespace cameo;

/** One fleet execution. */
struct FleetPhase
{
    unsigned shards = 0; ///< 0 = in-process reference.
    double wallSeconds = 0.0;
    std::string csv;
    bool ok = true;
};

/** The sweep every mode runs: a pure function of the bench env. */
std::vector<SweepJob>
shardBenchJobs()
{
    SystemConfig config = cameo::bench::benchConfig();
    if (std::getenv("CAMEO_BENCH_ACCESSES") == nullptr)
        config.accessesPerCore = 40'000;
    config.timingMode = TimingMode::Queued;

    std::vector<WorkloadProfile> workloads;
    if (std::getenv("CAMEO_BENCH_WORKLOADS") != nullptr) {
        workloads = cameo::bench::benchWorkloads();
    } else {
        const std::vector<WorkloadProfile> all = allWorkloads();
        workloads.assign(all.begin(),
                         all.begin() +
                             std::min<std::size_t>(8, all.size()));
    }

    std::vector<SweepJob> jobs;
    jobs.reserve(workloads.size());
    for (const WorkloadProfile &wl : workloads) {
        SweepJob job;
        job.label = wl.name + "/CAMEO";
        job.run = [config, wl] {
            return runWorkload(config, OrgKind::Cameo, wl);
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::string
resultsCsv(const std::vector<RunResult> &results)
{
    std::ostringstream out;
    writeShardResultsCsv(out, results);
    return out.str();
}

/** Parse "--flag=N" from argv (strict); @p fallback when absent. */
unsigned
argvUint(int argc, char **argv, const char *prefix, unsigned fallback)
{
    const std::size_t len = std::strlen(prefix);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix, len) != 0)
            continue;
        std::uint64_t value = 0;
        if (parseUintStrict(argv[i] + len, value) ==
            ParseUintStatus::Ok)
            return static_cast<unsigned>(value);
        std::cerr << "warning: malformed " << argv[i] << " (using "
                  << fallback << ")\n";
    }
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    bool worker = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker") == 0)
            worker = true;
    }
    if (worker) {
        const unsigned shards =
            argvUint(argc, argv, "--shards=", 1);
        const unsigned index =
            argvUint(argc, argv, "--shard-index=", 0);
        return runShardWorker(shardBenchJobs(), index, shards);
    }

    const char *out_env = std::getenv("CAMEO_BENCH_SHARD_OUT");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_shard.json";
    const unsigned host_cores = std::thread::hardware_concurrency();

    std::vector<SweepJob> jobs = shardBenchJobs();
    std::cout << "Shard-fleet scaling study: " << jobs.size()
              << " Queued-pipeline jobs, host cores: " << host_cores
              << "\n\n";

    std::vector<FleetPhase> phases;
    {
        FleetPhase phase;
        SweepOptions options;
        options.jobs = 1;
        SweepRunner runner(options);
        const std::vector<RunResult> results = runner.run(jobs);
        phase.wallSeconds = runner.telemetry().wallSeconds;
        phase.csv = resultsCsv(results);
        phases.push_back(std::move(phase));
    }

    bool identical = true;
    bool fleets_ok = true;
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
        FleetPhase phase;
        phase.shards = shards;
        FleetOptions options;
        options.shards = shards;
        options.workerCommand = {argv[0], "--worker",
                                 "--shards=" + std::to_string(shards)};
        FleetOutcome outcome = runShardFleet(jobs.size(), options);
        phase.wallSeconds = outcome.wallSeconds;
        phase.ok = outcome.ok();
        if (!phase.ok) {
            fleets_ok = false;
            for (const ShardFailure &f : outcome.failures) {
                std::cerr << "error: shards=" << shards << ": shard "
                          << f.shard << ": " << f.detail << "\n";
            }
        } else {
            phase.csv = resultsCsv(outcome.results);
            if (phase.csv != phases[0].csv) {
                identical = false;
                std::cerr << "error: shards=" << shards
                          << " CSV differs from the in-process "
                             "reference\n";
            }
        }
        phases.push_back(std::move(phase));
    }

    const auto wallOf = [&phases](unsigned shards) {
        for (const FleetPhase &p : phases) {
            if (p.shards == shards)
                return p.wallSeconds;
        }
        return 0.0;
    };
    const auto speedupOf = [&wallOf](unsigned shards) {
        return wallOf(shards) > 0.0 ? wallOf(1) / wallOf(shards) : 0.0;
    };

    std::cout << "Phase        Wall (s)   vs 1 shard   identical\n";
    for (const FleetPhase &phase : phases) {
        char line[96];
        std::snprintf(
            line, sizeof(line), "%-12s %8.3f   %8.2fx   %s\n",
            phase.shards == 0
                ? "in-process"
                : ("shards=" + std::to_string(phase.shards)).c_str(),
            phase.wallSeconds,
            phase.shards == 0 ? 1.0 : speedupOf(phase.shards),
            phase.ok ? (phase.csv == phases[0].csv ? "yes" : "NO")
                     : "FLEET FAILED");
        std::cout << line;
    }

    const double speedup4 = speedupOf(4);
    const bool enforce_target = host_cores >= 4;
    const bool target_met = speedup4 >= 2.5;
    std::cout << "\nspeedup at 4 shards: " << speedup4 << "x (target "
              << "2.5x, " << (enforce_target ? "enforced" : "recorded "
                                                            "only: host "
                                                            "has < 4 "
                                                            "cores")
              << ")\n"
              << (identical && fleets_ok
                      ? "all fleets byte-identical to the reference\n"
                      : "DIVERGENCE OR FLEET FAILURE\n");

    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"perf_shard\",\n"
        << "  \"host_cores\": " << host_cores << ",\n"
        << "  \"jobs\": " << jobs.size() << ",\n"
        << "  \"byte_identical\": "
        << (identical && fleets_ok ? "true" : "false") << ",\n"
        << "  \"target_speedup_4\": 2.5,\n"
        << "  \"target_enforced\": "
        << (enforce_target ? "true" : "false") << ",\n"
        << "  \"target_met\": " << (target_met ? "true" : "false")
        << ",\n"
        << "  \"note\": \"speedups are host telemetry; on hosts with "
           "fewer than 4 cores the scaling target is recorded but not "
           "enforced\",\n"
        << "  \"phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "    {\"shards\": %u, \"wall_seconds\": %.4f, "
                      "\"speedup_vs_1\": %.3f}%s\n",
                      phases[i].shards, phases[i].wallSeconds,
                      phases[i].shards == 0 ? 1.0
                                            : speedupOf(phases[i].shards),
                      i + 1 < phases.size() ? "," : "");
        out << line;
    }
    out << "  ]\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    const bool pass = identical && fleets_ok &&
                      (!enforce_target || target_met) && out.good();
    return pass ? 0 : 1;
}
