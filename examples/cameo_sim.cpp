/**
 * @file
 * cameo_sim: the command-line entry point for one-off simulations —
 * the tool a downstream user reaches for first. `cameo-sim --help`
 * prints every flag (kUsage below); an unknown flag is an error.
 */

#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "system/system.hh"
#include "trace/trace_arena.hh"
#include "trace/workloads.hh"
#include "util/cli.hh"

namespace
{

using namespace cameo;

/** The flag reference, printed by --help. */
constexpr const char *kUsage = R"(usage: cameo-sim [flags]

  cameo-sim --org=cameo --workload=milc
  cameo-sim --org=cache --workload=mcf --accesses=100000 --json
  cameo-sim --org=cameo --llt=embedded --predictor=sam --dump-stats
  cameo-sim --list

Flags:
  --org         any name from --list-orgs, matched case-
                insensitively: baseline|cache|tlm-static|
                tlm-dynamic|tlm-freq|tlm-oracle|doubleuse|cameo|
                cameo-freq|banshee                     (default cameo)
  --workload    Table II benchmark name                 (default milc)
  --accesses    L3-level accesses per core (>= 1)       (default 200000)
  --max-steps   kernel step limit, 0 = unlimited        (default 0)
  --cores       number of cores                         (default 8)
  --stacked-mb  stacked DRAM capacity in MB             (default 8)
  --offchip-mb  off-chip DRAM capacity in MB            (default 24)
  --seed        RNG seed                                (default 42)
  --llt         ideal|embedded|colocated                (default colocated)
  --predictor   sam|llp|perfect                         (default llp)
  --llp-entries LLR entries per core                    (default 256)
  --timing      blocking|queued memory pipeline         (default blocking)
  --warmup      accesses per core consumed before measurement, in
                addition to --accesses; what they do is set by
                --fidelity                              (default 0)
  --fidelity    what the warmup prefix does (DESIGN.md §13):
                skip       fast-forward the trace cursor only
                functional replay through the functional access path
                           (exact architectural state, no timing),
                           then switch to detailed measurement
                detailed   full-timing warmup, timing reset at the
                           switch (the slow reference)
                                                        (default skip)
  --checkpoint-at  pause after this many aggregate accesses (summed
                over cores), snapshot the full simulation state to
                --checkpoint-out, then continue to completion
                                                        (default 0 = off)
  --checkpoint-out snapshot path for --checkpoint-at  (default cameo.snap)
  --restore     restore a snapshot before running: the run resumes
                where the checkpoint paused and finishes bit-identical
                to the uninterrupted run. The configuration must match
                the snapshot's (--accesses may be larger, extending
                a prefix into a longer run; --warmup must be the value
                the snapshotted run used — the restored trace cursor
                already sits past warmup + processed records)
  --refresh     model DRAM refresh (tREFI 7.8us, tRFC 350ns)
  --baseline    also run the baseline and report speedup
  --jobs        sweep-engine worker threads (0 = auto; also
                CAMEO_BENCH_JOBS). With --baseline the two runs
                execute concurrently.
  --trace-cache-dir  persist recorded access streams as packed trace
                files in this directory and mmap them back on later
                runs (also CAMEO_TRACE_CACHE_DIR). Stale files are
                detected by an embedded key and re-recorded, never
                silently replayed. Every run replays its streams
                from the trace arena (DESIGN.md §10); this only
                makes the recordings outlive the process.
  --dump-stats  print the full statistics registry (text mode adds
                the run's accesses and instructions and each latency
                histogram's non-empty buckets)
  --json        machine-readable stats (implies --dump-stats)
  --csv         CSV stats with percentiles (implies --dump-stats)
  --list        list workloads and exit
  --list-orgs   list organizations with their composed mapping and
                placement policies (DESIGN.md §14) and exit
  --help        print this text and exit
)";

} // namespace

int
main(int argc, char **argv)
{
    const CliParser cli(argc, argv);

    if (cli.has("help")) {
        std::cout << kUsage;
        return EXIT_SUCCESS;
    }

    // Read every flag before acting on any, so that a misspelt flag or
    // a bad value is an error in every mode, --list included.
    const bool list = cli.getBool("list");
    const bool list_orgs = cli.getBool("list-orgs");
    const std::string org_name = cli.getString("org", "cameo");
    const std::string workload_name = cli.getString("workload", "milc");

    SystemConfig config = defaultConfig();
    config.accessesPerCore = cli.getUint("accesses", 200'000);
    config.maxKernelSteps = cli.getUint("max-steps", 0);
    config.numCores = static_cast<std::uint32_t>(
        cli.getUint("cores", config.numCores, UINT32_MAX));
    config.stackedBytes = cli.getUint("stacked-mb", 8, UINT64_MAX >> 20)
                          << 20;
    config.offchipBytes = cli.getUint("offchip-mb", 24, UINT64_MAX >> 20)
                          << 20;
    config.seed = cli.getUint("seed", config.seed);
    config.llt.llpTableEntries = static_cast<std::uint32_t>(
        cli.getUint("llp-entries", config.llt.llpTableEntries, UINT32_MAX));
    config.warmupAccessesPerCore = cli.getUint("warmup", 0);
    const std::string llt = cli.getString("llt", "colocated");
    const std::string pred = cli.getString("predictor", "llp");
    const std::string timing = cli.getString("timing", "blocking");
    const std::string fidelity = cli.getString("fidelity", "");
    const bool refresh = cli.getBool("refresh");

    const std::uint64_t checkpoint_at = cli.getUint("checkpoint-at", 0);
    const std::string checkpoint_out =
        cli.getString("checkpoint-out", "cameo.snap");
    const std::string restore_path = cli.getString("restore", "");

    const bool want_baseline = cli.getBool("baseline");
    const std::string cache_dir = cli.getString("trace-cache-dir", "");
    const bool json = cli.getBool("json");
    const bool csv = cli.getBool("csv");
    const bool dump = cli.getBool("dump-stats") || json || csv;
    const unsigned jobs = static_cast<unsigned>(
        cli.getUint("jobs", want_baseline ? 0 : 1, UINT32_MAX));

    const std::vector<std::string> unknown = cli.unknownFlags();
    for (const std::string &flag : unknown)
        std::cerr << "error: unknown flag --" << flag << " (see --help)\n";
    for (const std::string &err : cli.errors())
        std::cerr << "error: " << err << "\n";
    if (!unknown.empty() || !cli.errors().empty())
        return EXIT_FAILURE;

    if (list) {
        for (const auto &wl : allWorkloads()) {
            std::cout << wl.name << " (" << categoryName(wl.category)
                      << ", " << wl.paperFootprintGb << " GB, MPKI "
                      << wl.paperMpki << ")\n";
        }
        return EXIT_SUCCESS;
    }

    if (list_orgs) {
        for (const OrgKind k : allOrgKinds()) {
            const OrgComposition comp = orgComposition(k);
            std::cout << orgKindName(k) << " (mapping: " << comp.mapping
                      << ", placement: " << comp.placement << ")\n";
        }
        return EXIT_SUCCESS;
    }

    const std::optional<OrgKind> parsed = orgKindFromName(org_name);
    if (!parsed) {
        std::cerr << "error: unknown --org \"" << org_name
                  << "\"; valid names:";
        for (const OrgKind k : allOrgKinds())
            std::cerr << ' ' << orgKindName(k);
        std::cerr << " (see --list-orgs)\n";
        return EXIT_FAILURE;
    }
    const OrgKind kind = *parsed;
    const WorkloadProfile *profile = findWorkload(workload_name);
    if (profile == nullptr) {
        std::cerr << "error: unknown --workload (try --list)\n";
        return EXIT_FAILURE;
    }

    if (llt == "ideal")
        config.llt.kind = LltKind::Ideal;
    else if (llt == "embedded")
        config.llt.kind = LltKind::Embedded;
    else if (llt == "colocated")
        config.llt.kind = LltKind::CoLocated;
    else {
        std::cerr << "error: unknown --llt\n";
        return EXIT_FAILURE;
    }

    if (pred == "sam")
        config.llt.predictor = PredictorKind::Sam;
    else if (pred == "llp")
        config.llt.predictor = PredictorKind::Llp;
    else if (pred == "perfect")
        config.llt.predictor = PredictorKind::Perfect;
    else {
        std::cerr << "error: unknown --predictor\n";
        return EXIT_FAILURE;
    }

    if (timing == "blocking")
        config.timingMode = TimingMode::Blocking;
    else if (timing == "queued")
        config.timingMode = TimingMode::Queued;
    else {
        std::cerr << "error: unknown --timing (blocking|queued)\n";
        return EXIT_FAILURE;
    }

    if (refresh) {
        config.offchip.enableDdr3Refresh();
        config.stacked.enableDdr3Refresh();
    }

    if (config.accessesPerCore == 0) {
        std::cerr << "error: --accesses must be at least 1\n";
        return EXIT_FAILURE;
    }

    if (fidelity == "skip")
        config.warmupPolicy = WarmupPolicy::Skip;
    else if (fidelity == "functional")
        config.warmupPolicy = WarmupPolicy::Functional;
    else if (fidelity == "detailed")
        config.warmupPolicy = WarmupPolicy::Detailed;
    else if (!fidelity.empty()) {
        std::cerr << "error: unknown --fidelity '" << fidelity
                  << "' (skip|functional|detailed)\n";
        return EXIT_FAILURE;
    }

    if (!cache_dir.empty())
        TraceArenaCache::instance().setCacheDir(cache_dir);

    std::vector<OrgKind> requested = {kind};
    if (want_baseline)
        requested.push_back(OrgKind::Baseline);
    for (const OrgKind k : requested) {
        if (const char *err = config.validate(k)) {
            std::cerr << "error: cannot build " << orgKindName(k) << ": "
                      << err << "\n";
            return EXIT_FAILURE;
        }
    }

    // Both runs go through the sweep engine; with --baseline and
    // --jobs >= 2 (or auto) they execute concurrently. The System of
    // the main run outlives the sweep so --dump-stats can read its
    // registry.
    std::unique_ptr<System> main_system;
    std::vector<SweepJob> sweep_jobs;
    if (want_baseline) {
        sweep_jobs.push_back({"baseline", [&config, profile] {
                                  return runWorkload(
                                      config, OrgKind::Baseline, *profile);
                              }});
    }
    sweep_jobs.push_back(
        {org_name, [&] {
             main_system = std::make_unique<System>(config, kind, *profile);
             if (!restore_path.empty()) {
                 std::string err;
                 if (!main_system->restoreSnapshot(restore_path, &err))
                     throw std::runtime_error("--restore failed: " + err);
             }
             if (checkpoint_at != 0) {
                 main_system->runUntil(checkpoint_at);
                 std::string err;
                 if (!main_system->saveSnapshot(checkpoint_out, &err))
                     throw std::runtime_error("--checkpoint-out failed: " +
                                              err);
                 std::cerr << "checkpoint written to " << checkpoint_out
                           << " at " << main_system->totalAccesses()
                           << " accesses\n";
             }
             return main_system->run();
         }});

    SweepOptions sweep_options;
    sweep_options.jobs = jobs;
    const std::vector<RunResult> sweep_results =
        SweepRunner(sweep_options).run(std::move(sweep_jobs));

    const RunResult base =
        want_baseline ? sweep_results.front() : RunResult{};
    const RunResult r = sweep_results.back();
    System &system = *main_system;

    if (r.truncated) {
        std::cerr << "warning: run truncated at --max-steps="
                  << config.maxKernelSteps << " (" << r.kernelSteps
                  << " steps executed); execTime and all statistics "
                     "understate the full run\n";
    }

    if (json) {
        system.stats().dumpJson(std::cout);
    } else if (csv) {
        system.stats().dumpCsv(std::cout);
    } else {
        std::cout << r.orgName << " / " << r.workload << ": execTime="
                  << r.execTime << " cycles, MPKI=" << r.mpki()
                  << ", majorFaults=" << r.majorFaults;
        if (r.servicedStacked + r.servicedOffchip > 0) {
            std::cout << ", stackedService="
                      << 100.0 * r.stackedServiceFraction()
                      << "%, llpAccuracy=" << 100.0 * r.llpAccuracy
                      << "%";
        }
        if (want_baseline) {
            std::cout << ", speedup="
                      << static_cast<double>(base.execTime) /
                             static_cast<double>(r.execTime);
        }
        std::cout << "\n";
        if (dump) {
            std::cout << "accesses=" << r.accesses
                      << " instr=" << r.instructions << "\n";
            system.stats().dump(std::cout);
            for (const Distribution *d : system.stats().distributions()) {
                if (d->buckets().empty() || d->count() == 0)
                    continue;
                std::cout << "histogram " << d->name() << " (bucket "
                          << d->bucketWidth() << "):";
                for (std::size_t i = 0; i < d->buckets().size(); ++i) {
                    if (d->buckets()[i])
                        std::cout << " [" << i * d->bucketWidth()
                                  << "]=" << d->buckets()[i];
                }
                std::cout << " overflow=" << d->overflow() << "\n";
            }
        }
    }
    return EXIT_SUCCESS;
}
