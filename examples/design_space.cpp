/**
 * @file
 * design_space: an ablation tour of CAMEO's design choices beyond the
 * paper's published sweeps.
 *
 *  1. LLT design x predictor matrix (the cross product of Figures 9
 *     and 12) on one workload;
 *  2. stacked:total capacity ratio sweep — the paper fixes stacked at
 *     25% of memory ("a quarter or even half"); this shows how the
 *     congruence-group size K tracks the ratio and what it does to
 *     performance.
 *
 *   ./build/examples/design_space [workload] [accessesPerCore]
 */

#include <cstdlib>
#include <iostream>

#include "stats/table.hh"
#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/env.hh"
#include "util/math.hh"

namespace
{

using namespace cameo;

void
lltPredictorMatrix(const SystemConfig &base, const WorkloadProfile &wl)
{
    const RunResult baseline =
        runWorkload(base, OrgKind::Baseline, wl);

    TextTable table("LLT design x predictor (speedup over baseline)");
    table.setHeader({"LLT design", "SAM", "LLP", "Perfect"});
    for (const LltKind llt :
         {LltKind::Ideal, LltKind::Embedded, LltKind::CoLocated}) {
        std::vector<std::string> row{lltKindName(llt)};
        for (const PredictorKind pred :
             {PredictorKind::Sam, PredictorKind::Llp,
              PredictorKind::Perfect}) {
            SystemConfig c = base;
            c.llt.kind = llt;
            c.llt.predictor = pred;
            const RunResult r = runWorkload(c, OrgKind::Cameo, wl);
            row.push_back(TextTable::cell(
                speedup(static_cast<double>(baseline.execTime),
                        static_cast<double>(r.execTime))));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\n";
}

void
capacityRatioSweep(const SystemConfig &base, const WorkloadProfile &wl)
{
    TextTable table("Stacked fraction of total memory (group size K = "
                    "total/stacked)");
    table.setHeader({"Stacked MB", "Off-chip MB", "K", "Speedup",
                     "StackedServiced%", "LLP acc%"});
    // Keep total memory constant; move the stacked:off-chip split.
    const std::uint64_t total = base.totalMemoryBytes();
    for (const std::uint64_t stacked_mb : {2ull, 4ull, 8ull, 16ull}) {
        SystemConfig c = base;
        c.stackedBytes = stacked_mb << 20;
        c.offchipBytes = total - c.stackedBytes;
        if (c.offchipBytes % c.stackedBytes != 0)
            continue; // group math needs an integer K
        const RunResult baseline =
            runWorkload(c, OrgKind::Baseline, wl);
        const RunResult r = runWorkload(c, OrgKind::Cameo, wl);
        table.addRow(
            {TextTable::cell(stacked_mb),
             TextTable::cell(c.offchipBytes >> 20),
             TextTable::cell(total / c.stackedBytes),
             TextTable::cell(
                 speedup(static_cast<double>(baseline.execTime),
                         static_cast<double>(r.execTime))),
             TextTable::cell(100.0 * r.stackedServiceFraction(), 1),
             TextTable::cell(100.0 * r.llpAccuracy, 1)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "soplex";
    const WorkloadProfile *profile = findWorkload(name);
    if (profile == nullptr) {
        std::cerr << "error: unknown workload '" << name << "'\n";
        return EXIT_FAILURE;
    }
    SystemConfig config = defaultConfig();
    config.accessesPerCore = 100'000;
    if (argc > 2 && parseUintStrict(argv[2], config.accessesPerCore) !=
                    ParseUintStatus::Ok) {
        std::cerr << "error: accessesPerCore: expected an unsigned 64-bit "
                     "integer, got '" << argv[2] << "'\n";
        return EXIT_FAILURE;
    }

    std::cout << "CAMEO design-space ablations on " << profile->name
              << "\n\n";
    lltPredictorMatrix(config, *profile);
    capacityRatioSweep(config, *profile);
    return EXIT_SUCCESS;
}
