/**
 * @file
 * Banshee replacement-traffic bench: Queued-mode bus bytes across all
 * 17 workloads for Cache (Alloy), CAMEO, TLM-Dynamic, and Banshee.
 *
 * Banshee's entire claim (Yu et al., MICRO 2017) is bandwidth
 * efficiency: by caching the page mapping in the PTE/TLB path and
 * admitting pages only when a sampled frequency counter crosses a
 * threshold, it migrates rarely — so the DRAM bus carries demand
 * traffic, not replacement traffic. This bench measures exactly that
 * on the simulated machine: per (workload, org), the stacked and
 * off-chip bus bytes, bytes per demand access, and the migration/swap
 * counts that generate the replacement component.
 *
 * Environment:
 *   CAMEO_BENCH_ACCESSES     accesses per core per run
 *   CAMEO_BENCH_WORKLOADS    comma-separated workload override;
 *                            default is all 17
 *   CAMEO_BENCH_JOBS         sweep worker threads
 *   CAMEO_BENCH_BANSHEE_OUT  output JSON path (default
 *                            BENCH_banshee.json)
 *
 * Output: a stdout table plus BENCH_banshee.json with one record per
 * (workload, organization) and per-org total-traffic summaries,
 * consumed by CI's extension-smoke artifact upload and EXPERIMENTS.md's
 * Banshee section.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "stats/table.hh"
#include "system/system.hh"

namespace
{

using namespace cameo;

/** One (workload, organization) traffic row. */
struct TrafficResult
{
    std::string workload;
    std::string org;
    Tick execTime = 0;
    std::uint64_t accesses = 0;
    std::uint64_t stackedBytes = 0;
    std::uint64_t offchipBytes = 0;
    std::uint64_t swaps = 0;
    std::uint64_t pageMigrations = 0;

    std::uint64_t totalBytes() const
    {
        return stackedBytes + offchipBytes;
    }

    double bytesPerAccess() const
    {
        return accesses > 0 ? static_cast<double>(totalBytes()) /
                                  static_cast<double>(accesses)
                            : 0.0;
    }
};

} // namespace

int
main()
{
    using namespace cameo::bench;

    SystemConfig config = benchConfig();
    config.timingMode = TimingMode::Queued;

    const char *out_env = std::getenv("CAMEO_BENCH_BANSHEE_OUT");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_banshee.json";

    const std::vector<WorkloadProfile> workloads = benchWorkloads();
    const std::vector<std::pair<std::string, OrgKind>> orgs{
        {"Cache", OrgKind::AlloyCache},
        {"TLM-Dynamic", OrgKind::TlmDynamic},
        {"CAMEO", OrgKind::Cameo},
        {"Banshee", OrgKind::Banshee},
    };

    std::cout << "Banshee replacement traffic: Queued-mode bus bytes "
                 "per organization\n"
              << "(" << config.accessesPerCore << " accesses x "
              << config.numCores << " cores; Banshee sample rate "
              << config.bansheeSampleRate << ", hot threshold "
              << config.bansheeHotThreshold << ")\n\n";

    std::vector<SweepJob> jobs;
    for (const WorkloadProfile &wl : workloads) {
        for (const auto &org : orgs) {
            jobs.push_back({wl.name + "/" + org.first,
                            [&config, kind = org.second, &wl] {
                                return runWorkload(config, kind, wl);
                            }});
        }
    }
    const std::vector<RunResult> runs = runSweep(std::move(jobs));

    std::vector<TrafficResult> results;
    results.reserve(runs.size());
    TextTable table("Queued bus traffic (bytes/access; swaps and page "
                    "migrations are replacement events)");
    table.setHeader({"Workload", "Org", "Stacked-B", "Offchip-B",
                     "B/access", "Swaps", "Migrations"});
    std::vector<std::uint64_t> org_bytes(orgs.size(), 0);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t o = 0; o < orgs.size(); ++o) {
            const RunResult &r = runs[w * orgs.size() + o];
            TrafficResult res;
            res.workload = workloads[w].name;
            res.org = orgs[o].first;
            res.execTime = r.execTime;
            res.accesses = r.accesses;
            res.stackedBytes = r.stackedBytes;
            res.offchipBytes = r.offchipBytes;
            res.swaps = r.swaps;
            res.pageMigrations = r.pageMigrations;
            org_bytes[o] += res.totalBytes();
            table.addRow({res.workload, res.org,
                          TextTable::cell(res.stackedBytes),
                          TextTable::cell(res.offchipBytes),
                          TextTable::cell(res.bytesPerAccess(), 1),
                          TextTable::cell(res.swaps),
                          TextTable::cell(res.pageMigrations)});
            results.push_back(std::move(res));
        }
    }
    table.print(std::cout);

    std::cout << "\nTotal bus bytes across the workload set:\n";
    for (std::size_t o = 0; o < orgs.size(); ++o) {
        std::cout << "  " << orgs[o].first << ": " << org_bytes[o];
        if (orgs[o].first != "Banshee" && org_bytes[o] > 0) {
            std::cout << "  (Banshee = "
                      << TextTable::cell(
                             100.0 *
                                 static_cast<double>(
                                     org_bytes[orgs.size() - 1]) /
                                 static_cast<double>(org_bytes[o]),
                             1)
                      << "% of this)";
        }
        std::cout << "\n";
    }

    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"perf_banshee\",\n"
        << "  \"accesses_per_core\": " << config.accessesPerCore
        << ",\n"
        << "  \"num_cores\": " << config.numCores << ",\n"
        << "  \"banshee_sample_rate\": " << config.bansheeSampleRate
        << ",\n"
        << "  \"banshee_hot_threshold\": " << config.bansheeHotThreshold
        << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const TrafficResult &r = results[i];
        char line[512];
        std::snprintf(
            line, sizeof(line),
            "    {\"workload\": \"%s\", \"org\": \"%s\", "
            "\"exec_time\": %llu, \"accesses\": %llu, "
            "\"stacked_bytes\": %llu, \"offchip_bytes\": %llu, "
            "\"bytes_per_access\": %.3f, "
            "\"swaps\": %llu, \"page_migrations\": %llu}%s\n",
            r.workload.c_str(), r.org.c_str(),
            static_cast<unsigned long long>(r.execTime),
            static_cast<unsigned long long>(r.accesses),
            static_cast<unsigned long long>(r.stackedBytes),
            static_cast<unsigned long long>(r.offchipBytes),
            r.bytesPerAccess(),
            static_cast<unsigned long long>(r.swaps),
            static_cast<unsigned long long>(r.pageMigrations),
            i + 1 < results.size() ? "," : "");
        out << line;
    }
    out << "  ],\n"
        << "  \"total_bytes\": {";
    for (std::size_t o = 0; o < orgs.size(); ++o) {
        out << "\"" << orgs[o].first << "\": " << org_bytes[o]
            << (o + 1 < orgs.size() ? ", " : "");
    }
    out << "}\n}\n";
    out.close();
    std::cout << "\nwrote " << out_path << "\n";
    return out.good() ? 0 : 1;
}
