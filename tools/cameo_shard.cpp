/**
 * @file
 * cameo-shard: multi-process sharded sweep runner (DESIGN.md §15).
 *
 * Runs a workload × organization sweep matrix either in-process (the
 * reference mode) or as a fleet of worker subprocesses, and writes the
 * merged results as deterministic CSV — byte-identical between the two
 * modes and across any shard count. `cameo-shard --help` prints every
 * flag (kUsage below). Unknown flags only warn: perfbench's fleet
 * command still passes --warm-prefix and --warm-cache-dir, which this
 * tool no longer has.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.hh"
#include "shard/fleet.hh"
#include "system/system.hh"
#include "trace/trace_arena.hh"
#include "trace/workloads.hh"
#include "util/cli.hh"
#include "util/env.hh"

namespace
{

using namespace cameo;

/** The flag reference, printed by --help. */
constexpr const char *kUsage = R"(usage: cameo-shard [flags]

  cameo-shard --workloads=milc,mcf --orgs=cameo,cache          # in-process
  cameo-shard --workloads=milc,mcf --orgs=cameo,cache --shards=4

Flags:
  --workloads   comma-separated Table II benchmark names (default milc)
  --orgs        comma-separated organization names       (default cameo)
  --accesses    L3-level accesses per core (>= 1)        (default 200000)
  --cores       number of cores                          (default 8)
  --stacked-mb  stacked DRAM capacity in MB              (default 8)
  --offchip-mb  off-chip DRAM capacity in MB             (default 24)
  --seed        RNG seed                                 (default 42)
  --timing      blocking|queued memory pipeline          (default blocking)
  --warmup      warmup accesses per core (see cameo-sim) (default 0)
  --fidelity    skip|functional|detailed warmup fidelity (default skip)
  --shards      worker process count; 0 runs the sweep
                in-process (reference mode). Also the
                CAMEO_SHARDS environment variable; the flag
                wins                                     (default 0)
  --jobs        sweep threads for the in-process mode and
                per worker (default 1: determinism needs no
                thread pinning, processes are the axis)
  --trace-cache-dir  shared packed-trace directory: the whole fleet
                records each workload stream once (also
                CAMEO_TRACE_CACHE_DIR)
  --out         CSV output path (default: stdout)
  --summary-json     also write a JSON summary (deterministic
                aggregates only — no wall-clock, no shard count)
  --progress    stream per-job completion lines to stderr
  --help        print this text and exit

Worker plumbing (normally set by the orchestrator, documented for
debugging): --worker turns this invocation into a shard worker that
runs its slice (--shard-index, also CAMEO_SHARD_INDEX) of the same job
list and streams framed results to the fd in CAMEO_SHARD_RESULT_FD
(default: stdout).
)";

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Env-default for a flag: strictly parsed; malformed values and
 *  values above @p max warn and fall back. */
std::uint64_t
envDefault(const char *name, std::uint64_t fallback, std::uint64_t max)
{
    std::string error;
    const std::optional<std::uint64_t> value = envUint(name, &error);
    if (value && *value > max) {
        error = std::string(name) + ": value out of range: '" +
                std::to_string(*value) + "'";
    }
    if (!error.empty()) {
        std::cerr << "warning: " << error << " (using default "
                  << fallback << ")\n";
        return fallback;
    }
    return value.value_or(fallback);
}

/** The deterministic JSON summary: aggregates of the merged results. */
void
writeSummaryJson(std::ostream &os, const std::vector<RunResult> &results)
{
    RunResult total;
    bool first = true;
    for (const RunResult &r : results) {
        if (first) {
            total = r;
            first = false;
        } else {
            total.merge(r);
        }
    }
    char accuracy[40];
    std::snprintf(accuracy, sizeof(accuracy), "%.17g",
                  total.llpAccuracy);
    os << "{\n"
       << "  \"tool\": \"cameo-shard\",\n"
       << "  \"jobs\": " << results.size() << ",\n"
       << "  \"aggregate\": {\n"
       << "    \"exec_time_max\": " << total.execTime << ",\n"
       << "    \"instructions\": " << total.instructions << ",\n"
       << "    \"accesses\": " << total.accesses << ",\n"
       << "    \"l3_hits\": " << total.l3Hits << ",\n"
       << "    \"l3_misses\": " << total.l3Misses << ",\n"
       << "    \"major_faults\": " << total.majorFaults << ",\n"
       << "    \"minor_faults\": " << total.minorFaults << ",\n"
       << "    \"serviced_stacked\": " << total.servicedStacked << ",\n"
       << "    \"serviced_offchip\": " << total.servicedOffchip << ",\n"
       << "    \"swaps\": " << total.swaps << ",\n"
       << "    \"page_migrations\": " << total.pageMigrations << ",\n"
       << "    \"llp_accuracy\": " << accuracy << "\n"
       << "  }\n"
       << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const CliParser cli(argc, argv);

    if (cli.has("help")) {
        std::cout << kUsage;
        return EXIT_SUCCESS;
    }

    // Parse every flag up front, in every mode, so a worker inheriting
    // the orchestrator's argv never warns about "unknown" output flags.
    const std::vector<std::string> workload_names =
        splitCsv(cli.getString("workloads", "milc"));
    const std::vector<std::string> org_names =
        splitCsv(cli.getString("orgs", "cameo"));
    const std::uint64_t accesses = cli.getUint("accesses", 200'000);
    const std::uint64_t cores = cli.getUint("cores", 8, UINT32_MAX);
    const std::uint64_t stacked_mb =
        cli.getUint("stacked-mb", 8, UINT64_MAX >> 20);
    const std::uint64_t offchip_mb =
        cli.getUint("offchip-mb", 24, UINT64_MAX >> 20);
    const std::uint64_t seed = cli.getUint("seed", 42);
    const std::string timing = cli.getString("timing", "blocking");
    const std::uint64_t warmup = cli.getUint("warmup", 0);
    const std::string fidelity = cli.getString("fidelity", "");
    const unsigned shards = static_cast<unsigned>(cli.getUint(
        "shards", envDefault("CAMEO_SHARDS", 0, UINT32_MAX), UINT32_MAX));
    const unsigned shard_index = static_cast<unsigned>(
        cli.getUint("shard-index",
                    envDefault("CAMEO_SHARD_INDEX", 0, UINT32_MAX),
                    UINT32_MAX));
    const bool worker = cli.getBool("worker");
    const unsigned jobs =
        static_cast<unsigned>(cli.getUint("jobs", 1, UINT32_MAX));
    const std::string trace_dir = cli.getString("trace-cache-dir", "");
    const std::string out_path = cli.getString("out", "");
    const std::string summary_path = cli.getString("summary-json", "");
    const bool progress = cli.getBool("progress");

    for (const std::string &flag : cli.unknownFlags())
        std::cerr << "warning: unknown flag --" << flag << "\n";
    for (const std::string &err : cli.errors())
        std::cerr << "error: " << err << "\n";
    if (!cli.errors().empty())
        return EXIT_FAILURE;

    SystemConfig config = defaultConfig();
    config.accessesPerCore = accesses;
    config.numCores = static_cast<std::uint32_t>(cores);
    config.stackedBytes = stacked_mb << 20;
    config.offchipBytes = offchip_mb << 20;
    config.seed = seed;
    if (timing == "blocking")
        config.timingMode = TimingMode::Blocking;
    else if (timing == "queued")
        config.timingMode = TimingMode::Queued;
    else {
        std::cerr << "error: unknown --timing (blocking|queued)\n";
        return EXIT_FAILURE;
    }
    if (accesses == 0) {
        std::cerr << "error: --accesses must be at least 1\n";
        return EXIT_FAILURE;
    }
    config.warmupAccessesPerCore = warmup;
    if (!fidelity.empty()) {
        if (fidelity == "skip")
            config.warmupPolicy = WarmupPolicy::Skip;
        else if (fidelity == "functional")
            config.warmupPolicy = WarmupPolicy::Functional;
        else if (fidelity == "detailed")
            config.warmupPolicy = WarmupPolicy::Detailed;
        else {
            std::cerr << "error: unknown --fidelity '" << fidelity
                      << "' (skip|functional|detailed)\n";
            return EXIT_FAILURE;
        }
    }

    // One shared packed-trace directory per fleet. Workers inherit the
    // flag through their argv, so every process points at the same
    // files and the per-file locks (util/fs_lock.hh) make exactly one
    // of them record each stream.
    if (!trace_dir.empty())
        TraceArenaCache::instance().setCacheDir(trace_dir);

    // The job matrix: workloads (outer) x organizations (inner), in
    // flag order. Every mode — in-process, orchestrator, worker —
    // derives the identical list from the identical flags.
    std::vector<OrgKind> kinds;
    kinds.reserve(org_names.size());
    for (const std::string &name : org_names) {
        const std::optional<OrgKind> kind = orgKindFromName(name);
        if (!kind) {
            std::cerr << "error: unknown --orgs entry \"" << name
                      << "\"\n";
            return EXIT_FAILURE;
        }
        if (const char *err = config.validate(*kind)) {
            std::cerr << "error: cannot build " << orgKindName(*kind)
                      << ": " << err << "\n";
            return EXIT_FAILURE;
        }
        kinds.push_back(*kind);
    }
    std::vector<SweepJob> sweep_jobs;
    for (const std::string &wl_name : workload_names) {
        const WorkloadProfile *profile = findWorkload(wl_name);
        if (profile == nullptr) {
            std::cerr << "error: unknown --workloads entry \"" << wl_name
                      << "\"\n";
            return EXIT_FAILURE;
        }
        for (const OrgKind kind : kinds) {
            SweepJob job;
            job.label = std::string(profile->name) + "/" +
                        orgKindName(kind);
            job.run = [config, kind, profile] {
                return runWorkload(config, kind, *profile);
            };
            sweep_jobs.push_back(std::move(job));
        }
    }
    if (sweep_jobs.empty()) {
        std::cerr << "error: empty job matrix (--workloads/--orgs)\n";
        return EXIT_FAILURE;
    }

    if (worker)
        return runShardWorker(sweep_jobs, shard_index,
                              shards == 0 ? 1 : shards);

    std::vector<RunResult> results;
    if (shards == 0) {
        // In-process reference mode.
        ProgressReporter reporter(progress ? &std::cerr : nullptr);
        SweepOptions options;
        options.jobs = jobs;
        options.progress = progress ? &reporter : nullptr;
        results = SweepRunner(options).run(std::move(sweep_jobs));
    } else {
        ProgressReporter reporter(progress ? &std::cerr : nullptr);
        FleetOptions options;
        options.shards = shards;
        options.progress = progress ? &reporter : nullptr;
        options.workerCommand.assign(argv, argv + argc);
        options.workerCommand.push_back("--worker");
        options.workerCommand.push_back("--shards=" +
                                        std::to_string(shards));
        FleetOutcome outcome = runShardFleet(sweep_jobs.size(), options);
        if (!outcome.ok()) {
            for (const ShardFailure &f : outcome.failures) {
                std::cerr << "error: shard " << f.shard << ": "
                          << f.detail << "\n";
            }
            for (const std::size_t index : outcome.missing) {
                std::cerr << "error: no result for job " << index
                          << " (" << sweep_jobs[index].label << ")\n";
            }
            std::cerr << "error: fleet failed; no output written\n";
            return EXIT_FAILURE;
        }
        results = std::move(outcome.results);
        if (progress) {
            char wall[40];
            std::snprintf(wall, sizeof(wall), "%.2f",
                          outcome.wallSeconds);
            reporter.line("fleet: " + std::to_string(shards) +
                          " shards, " + std::to_string(results.size()) +
                          " jobs in " + wall + "s");
        }
    }

    if (out_path.empty()) {
        writeShardResultsCsv(std::cout, results);
    } else {
        std::ofstream out(out_path, std::ios::binary);
        if (!out) {
            std::cerr << "error: cannot write --out " << out_path
                      << "\n";
            return EXIT_FAILURE;
        }
        writeShardResultsCsv(out, results);
    }
    if (!summary_path.empty()) {
        std::ofstream out(summary_path, std::ios::binary);
        if (!out) {
            std::cerr << "error: cannot write --summary-json "
                      << summary_path << "\n";
            return EXIT_FAILURE;
        }
        writeSummaryJson(out, results);
    }
    return EXIT_SUCCESS;
}
