/**
 * @file
 * Trace-arena before/after study: the same multi-organization,
 * multi-config sweep fed by fresh generators ("direct": a sourceFactory
 * that builds a SyntheticGenerator per core) and by arena replay (the
 * default stream path), at one and at eight workers, plus a records/s
 * microbenchmark of the three stream sources (fresh generator, arena
 * replay, mmap'd packed trace file).
 *
 * The sweep deliberately includes TLM-Oracle: without the arena every
 * oracle job generates its streams twice (page-heat pre-pass + run),
 * while with it both passes replay the recorded arena, so the arena's
 * payoff is visible exactly where real sweeps pay for it. The config
 * axis varies off-chip capacity, which does not enter GeneratorParams —
 * all points of one workload share one set of per-core arenas. Runs use
 * a warmup window of half the measured accesses: the direct path
 * fast-forwards by generating and discarding those records per job,
 * while arena replay jumps over them through the packed trace's
 * checkpoint table.
 *
 * All four phases must produce bit-identical results; the bench exits
 * non-zero if any field of any run differs.
 *
 * Environment:
 *   CAMEO_BENCH_ACCESSES   accesses per core per run
 *   CAMEO_BENCH_WORKLOADS  comma-separated workload override
 *                          (default mcf,astar)
 *   CAMEO_BENCH_ARENA_OUT  output JSON path (default BENCH_arena.json)
 *   CAMEO_TRACE_ARENA_MB   arena cache cap; 0 keeps no arena
 *                          resident, so every arena-phase run records
 *                          its own streams
 *
 * Output: a stdout table plus BENCH_arena.json with per-phase wall
 * times, the jobs=1 and jobs=8 speedups, cache counters, and the
 * micro records/s figures, consumed by CI's arena-smoke artifact
 * upload and EXPERIMENTS.md's arena section.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "exp/stopwatch.hh"
#include "stats/table.hh"
#include "system/system.hh"
#include "trace/trace_arena.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace cameo;

/** One timed sweep execution. */
struct PhaseResult
{
    std::string label;
    bool arena = false;
    unsigned jobs = 0;
    double wallSeconds = 0.0;
    std::vector<RunResult> results;
};

/** One micro-benchmark row: how fast a source refills. */
struct MicroResult
{
    std::string source;
    std::uint64_t records = 0;
    double seconds = 0.0;

    double nsPerRecord() const
    {
        return records > 0 ? 1e9 * seconds / static_cast<double>(records)
                           : 0.0;
    }
    double recordsPerSecond() const
    {
        return seconds > 0.0 ? static_cast<double>(records) / seconds
                             : 0.0;
    }
};

bool
sameResult(const RunResult &a, const RunResult &b)
{
    return a.execTime == b.execTime && a.instructions == b.instructions &&
           a.accesses == b.accesses && a.l3Hits == b.l3Hits &&
           a.l3Misses == b.l3Misses && a.stackedBytes == b.stackedBytes &&
           a.offchipBytes == b.offchipBytes &&
           a.majorFaults == b.majorFaults &&
           a.minorFaults == b.minorFaults &&
           a.servicedStacked == b.servicedStacked &&
           a.servicedOffchip == b.servicedOffchip && a.swaps == b.swaps &&
           a.llpCases == b.llpCases &&
           a.pageMigrations == b.pageMigrations;
}

/**
 * Run the full (workload x org x capacity) matrix once. The cache is
 * cleared first, so every arena phase pays its own recording cost —
 * the measured speedup includes materialization, not just replay.
 * Direct phases bypass the arena with a generator sourceFactory.
 */
PhaseResult
runPhase(const std::vector<WorkloadProfile> &workloads,
         const std::vector<std::pair<std::string, OrgKind>> &orgs,
         const std::vector<std::uint64_t> &offchip_mb,
         const SystemConfig &base, bool arena, unsigned jobs)
{
    TraceArenaCache::instance().clear();

    std::vector<SystemConfig> configs;
    configs.reserve(offchip_mb.size());
    for (const std::uint64_t mb : offchip_mb) {
        SystemConfig config = base;
        config.offchipBytes = mb << 20;
        if (!arena) {
            config.sourceFactory =
                [](std::uint32_t, const WorkloadProfile &profile,
                   const GeneratorParams &params,
                   std::uint64_t seed) -> std::unique_ptr<AccessSource> {
                return std::make_unique<SyntheticGenerator>(profile, params,
                                                            seed);
            };
        }
        configs.push_back(config);
    }

    std::vector<SweepJob> sweep;
    sweep.reserve(workloads.size() * orgs.size() * configs.size());
    for (const WorkloadProfile &wl : workloads) {
        for (const auto &org : orgs) {
            for (std::size_t c = 0; c < configs.size(); ++c) {
                sweep.push_back(
                    {wl.name + "/" + org.first + "/" +
                         std::to_string(offchip_mb[c]) + "MB",
                     [&config = configs[c], kind = org.second, &wl] {
                         return runWorkload(config, kind, wl);
                     }});
            }
        }
    }

    SweepOptions options;
    options.jobs = jobs;
    SweepRunner runner(options);

    PhaseResult phase;
    phase.arena = arena;
    phase.jobs = jobs;
    phase.label = std::string(arena ? "arena" : "direct") + "/jobs=" +
                  std::to_string(jobs);
    phase.results = runner.run(std::move(sweep));
    phase.wallSeconds = runner.telemetry().wallSeconds;
    return phase;
}

/** Time @p source refilling @p records accesses in 4096-chunks. */
MicroResult
timeSource(AccessSource &source, const std::string &label,
           std::uint64_t records)
{
    std::vector<Access> buf(4096);
    // Warm the source (first-touch allocation, page-in).
    source.refill(buf.data(), buf.size());

    MicroResult micro;
    micro.source = label;
    micro.records = records;
    std::uint64_t sink = 0;
    Stopwatch watch;
    std::uint64_t left = records;
    while (left > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, buf.size()));
        source.refill(buf.data(), n);
        sink += buf[n - 1].vaddr;
        left -= n;
    }
    micro.seconds = watch.seconds();
    if (sink == 0xdeadbeef) // Defeat dead-code elimination.
        std::cerr << "";
    return micro;
}

} // namespace

int
main()
{
    using namespace cameo::bench;

    SystemConfig base = benchConfig();
    base.warmupAccessesPerCore = base.accessesPerCore / 2;

    const char *out_env = std::getenv("CAMEO_BENCH_ARENA_OUT");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_arena.json";

    // One capacity-limited and one latency-limited workload keep the
    // default run short while exercising both stream shapes.
    std::vector<WorkloadProfile> workloads;
    if (std::getenv("CAMEO_BENCH_WORKLOADS") != nullptr) {
        workloads = benchWorkloads();
    } else {
        for (const char *name : {"mcf", "astar"})
            workloads.push_back(*findWorkload(name));
    }

    // Baseline (generation-bound) plus TLM-Oracle (generates each
    // stream twice and profiles page heat — the arena's best case).
    const std::vector<std::pair<std::string, OrgKind>> orgs{
        {"Baseline", OrgKind::Baseline},
        {"TLM-Oracle", OrgKind::TlmOracle},
    };
    const std::vector<std::uint64_t> offchip_mb{24, 32, 48};
    const unsigned kParallelJobs = 8;

    std::cout << "Trace-arena sweep study: "
              << workloads.size() * orgs.size() * offchip_mb.size()
              << " runs (" << workloads.size() << " workloads x "
              << orgs.size() << " orgs x " << offchip_mb.size()
              << " off-chip capacities), " << base.accessesPerCore
              << " accesses (+" << base.warmupAccessesPerCore
              << " warmup) x " << base.numCores << " cores\n"
              << "arena cache cap: "
              << TraceArenaCache::instance().capBytes() / (1024 * 1024)
              << " MB\n\n";

    // Phase order keeps each arena phase paying its own recording.
    std::vector<PhaseResult> phases;
    phases.push_back(
        runPhase(workloads, orgs, offchip_mb, base, false, 1));
    phases.push_back(
        runPhase(workloads, orgs, offchip_mb, base, false, kParallelJobs));
    phases.push_back(
        runPhase(workloads, orgs, offchip_mb, base, true, kParallelJobs));
    const TraceArenaStats arena_stats = TraceArenaCache::instance().stats();
    phases.push_back(
        runPhase(workloads, orgs, offchip_mb, base, true, 1));

    // Every phase must reproduce the first bit-for-bit.
    bool identical = true;
    for (const PhaseResult &phase : phases) {
        if (phase.results.size() != phases[0].results.size()) {
            identical = false;
            break;
        }
        for (std::size_t i = 0; i < phase.results.size(); ++i) {
            if (!sameResult(phase.results[i], phases[0].results[i])) {
                std::cerr << "error: " << phase.label << " run " << i
                          << " (" << phase.results[i].workload << "/"
                          << phase.results[i].orgName
                          << ") differs from " << phases[0].label << "\n";
                identical = false;
            }
        }
    }

    TextTable table("Sweep wall-clock by phase");
    table.setHeader({"Phase", "Jobs", "Wall (s)", "Speedup"});
    const auto wallOf = [&](bool arena, unsigned jobs) {
        for (const PhaseResult &p : phases) {
            if (p.arena == arena && p.jobs == jobs)
                return p.wallSeconds;
        }
        return 0.0;
    };
    for (const PhaseResult &phase : phases) {
        const double direct = wallOf(false, phase.jobs);
        table.addRow({phase.arena ? "arena" : "direct",
                      TextTable::cell(std::uint64_t{phase.jobs}),
                      TextTable::cell(phase.wallSeconds, 3),
                      phase.arena && phase.wallSeconds > 0.0
                          ? TextTable::cell(direct / phase.wallSeconds) +
                                "x"
                          : std::string("-")});
    }
    table.print(std::cout);

    const double speedup1 =
        wallOf(true, 1) > 0.0 ? wallOf(false, 1) / wallOf(true, 1) : 0.0;
    const double speedup8 = wallOf(true, kParallelJobs) > 0.0
                                ? wallOf(false, kParallelJobs) /
                                      wallOf(true, kParallelJobs)
                                : 0.0;
    std::cout << "\nspeedup: " << speedup1 << "x at jobs=1, " << speedup8
              << "x at jobs=" << kParallelJobs << " ("
              << (identical ? "all phases bit-identical"
                            : "RESULTS DIVERGED")
              << ")\n"
              << "arena: " << arena_stats.recordings << " recordings, "
              << arena_stats.hits << " hits, "
              << arena_stats.residentBytes / 1024 << " KiB resident\n\n";

    // Micro: raw refill throughput of the three stream sources over
    // the same workload/params/seed.
    const WorkloadProfile &micro_wl = workloads.front();
    const GeneratorParams micro_gp = base.generatorParamsFor(micro_wl);
    const std::uint64_t kMicroArena = 1'000'000;  // arena records
    const std::uint64_t kMicroReplay = 4'000'000; // records timed

    std::vector<MicroResult> micro;
    {
        SyntheticGenerator gen(micro_wl, micro_gp, base.seed);
        micro.push_back(timeSource(gen, "generator", kMicroReplay));
    }
    const auto arena =
        TraceArena::record(micro_wl, micro_gp, base.seed, kMicroArena);
    {
        ArenaReplaySource replay(arena);
        micro.push_back(timeSource(replay, "arena-replay", kMicroReplay));
    }
    {
        const std::string trace_path =
            (std::filesystem::temp_directory_path() /
             "cameo_perf_arena.ctp")
                .string();
        std::string error;
        if (!writePackedTraceFile(trace_path, arena->view(), "perf_arena",
                                  &error)) {
            std::cerr << "error: " << error << "\n";
            return 1;
        }
        TraceReader reader(trace_path);
        micro.push_back(timeSource(reader, "trace-file-mmap",
                                   kMicroReplay));
        std::remove(trace_path.c_str());
    }

    TextTable micro_table("Stream source refill throughput");
    micro_table.setHeader({"Source", "ns/record", "Mrecords/s"});
    for (const MicroResult &m : micro) {
        micro_table.addRow({m.source, TextTable::cell(m.nsPerRecord(), 1),
                            TextTable::cell(
                                m.recordsPerSecond() / 1e6, 1)});
    }
    micro_table.print(std::cout);

    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"perf_arena\",\n"
        << "  \"accesses_per_core\": " << base.accessesPerCore << ",\n"
        << "  \"warmup_accesses_per_core\": "
        << base.warmupAccessesPerCore << ",\n"
        << "  \"num_cores\": " << base.numCores << ",\n"
        << "  \"workloads\": [";
    for (std::size_t i = 0; i < workloads.size(); ++i)
        out << (i ? ", " : "") << "\"" << workloads[i].name << "\"";
    out << "],\n  \"orgs\": [";
    for (std::size_t i = 0; i < orgs.size(); ++i)
        out << (i ? ", " : "") << "\"" << orgs[i].first << "\"";
    out << "],\n  \"offchip_mb\": [";
    for (std::size_t i = 0; i < offchip_mb.size(); ++i)
        out << (i ? ", " : "") << offchip_mb[i];
    out << "],\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false")
        << ",\n"
        << "  \"phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "    {\"arena\": %s, \"jobs\": %u, "
                      "\"wall_seconds\": %.4f}%s\n",
                      phases[i].arena ? "true" : "false", phases[i].jobs,
                      phases[i].wallSeconds,
                      i + 1 < phases.size() ? "," : "");
        out << line;
    }
    char tail[640];
    std::snprintf(
        tail, sizeof(tail),
        "  ],\n"
        "  \"speedup_jobs1\": %.3f,\n"
        "  \"speedup_jobs8\": %.3f,\n"
        "  \"arena_stats\": {\"recordings\": %llu, \"hits\": %llu, "
        "\"disk_loads\": %llu, \"evictions\": %llu, "
        "\"resident_bytes\": %llu},\n"
        "  \"micro\": [\n",
        speedup1, speedup8,
        static_cast<unsigned long long>(arena_stats.recordings),
        static_cast<unsigned long long>(arena_stats.hits),
        static_cast<unsigned long long>(arena_stats.diskLoads),
        static_cast<unsigned long long>(arena_stats.evictions),
        static_cast<unsigned long long>(arena_stats.residentBytes));
    out << tail;
    for (std::size_t i = 0; i < micro.size(); ++i) {
        char line[224];
        std::snprintf(line, sizeof(line),
                      "    {\"source\": \"%s\", \"records\": %llu, "
                      "\"ns_per_record\": %.2f, "
                      "\"records_per_second\": %.0f}%s\n",
                      micro[i].source.c_str(),
                      static_cast<unsigned long long>(micro[i].records),
                      micro[i].nsPerRecord(), micro[i].recordsPerSecond(),
                      i + 1 < micro.size() ? "," : "");
        out << line;
    }
    out << "  ]\n}\n";
    out.close();
    std::cout << "\nwrote " << out_path << "\n";
    return identical && out.good() ? 0 : 1;
}
