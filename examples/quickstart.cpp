/**
 * @file
 * Quickstart: simulate one workload on the three headline memory
 * organizations (hardware cache, two-level memory, CAMEO) and print
 * their speedups over the no-stacked-DRAM baseline.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [workload] [accessesPerCore]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "stats/table.hh"
#include "exp/experiment.hh"
#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/env.hh"
#include "util/math.hh"

int
main(int argc, char **argv)
{
    using namespace cameo;

    const std::string workload_name = argc > 1 ? argv[1] : "milc";
    const WorkloadProfile *profile = findWorkload(workload_name);
    if (profile == nullptr) {
        std::cerr << "error: unknown workload '" << workload_name
                  << "'; available:";
        for (const auto &w : allWorkloads())
            std::cerr << " " << w.name;
        std::cerr << "\n";
        return EXIT_FAILURE;
    }

    SystemConfig config = defaultConfig();
    if (argc > 2 && parseUintStrict(argv[2], config.accessesPerCore) !=
                    ParseUintStatus::Ok) {
        std::cerr << "error: accessesPerCore: expected an unsigned 64-bit "
                     "integer, got '" << argv[2] << "'\n";
        return EXIT_FAILURE;
    }

    std::cout << "CAMEO quickstart: workload=" << profile->name
              << " (" << categoryName(profile->category) << "-limited), "
              << config.numCores << " cores, stacked="
              << (config.stackedBytes >> 20) << "MB, off-chip="
              << (config.offchipBytes >> 20) << "MB, "
              << config.accessesPerCore << " accesses/core\n\n";

    const RunResult base =
        runWorkload(config, OrgKind::Baseline, *profile);

    TextTable table("Speedup over baseline (no stacked DRAM)");
    table.setHeader({"Design", "ExecTime(cycles)", "Speedup", "MPKI",
                     "MajorFaults"});
    const auto add = [&](const RunResult &r) {
        table.addRow({r.orgName, TextTable::cell(r.execTime),
                      TextTable::cell(speedup(
                          static_cast<double>(base.execTime),
                          static_cast<double>(r.execTime))),
                      TextTable::cell(r.mpki()),
                      TextTable::cell(r.majorFaults)});
    };

    add(base);
    add(runWorkload(config, OrgKind::AlloyCache, *profile));
    add(runWorkload(config, OrgKind::TlmStatic, *profile));
    add(runWorkload(config, OrgKind::TlmDynamic, *profile));
    const RunResult cameo_run =
        runWorkload(config, OrgKind::Cameo, *profile);
    add(cameo_run);
    add(runWorkload(config, OrgKind::DoubleUse, *profile));
    table.print(std::cout);

    std::cout << "\nCAMEO details: " << cameo_run.servicedStacked
              << " accesses serviced by stacked DRAM, "
              << cameo_run.servicedOffchip << " by off-chip, "
              << cameo_run.swaps << " line swaps, LLP accuracy "
              << TextTable::cell(100.0 * cameo_run.llpAccuracy, 1)
              << "%\n";
    return EXIT_SUCCESS;
}
