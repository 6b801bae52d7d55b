/**
 * @file
 * capacity_study: the paper's core capacity argument on one workload.
 *
 * Runs a Capacity-Limited workload (default GemsFDTD) across the
 * designs and shows where the time goes: page-fault counts, SSD
 * traffic, and the OS-visible memory each organization exposes. This
 * is the "stacked DRAM must count toward main memory" story of
 * Sections I-II in one screen.
 *
 *   ./build/examples/capacity_study [workload] [accessesPerCore]
 */

#include <cstdlib>
#include <iostream>

#include "stats/table.hh"
#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/env.hh"
#include "util/math.hh"

int
main(int argc, char **argv)
{
    using namespace cameo;

    const std::string name = argc > 1 ? argv[1] : "GemsFDTD";
    const WorkloadProfile *profile = findWorkload(name);
    if (profile == nullptr) {
        std::cerr << "error: unknown workload '" << name << "'\n";
        return EXIT_FAILURE;
    }

    SystemConfig config = defaultConfig();
    config.accessesPerCore = 150'000;
    if (argc > 2 && parseUintStrict(argv[2], config.accessesPerCore) !=
                    ParseUintStatus::Ok) {
        std::cerr << "error: accessesPerCore: expected an unsigned 64-bit "
                     "integer, got '" << argv[2] << "'\n";
        return EXIT_FAILURE;
    }

    std::cout << "Capacity study: " << profile->name << " ("
              << categoryName(profile->category) << "-limited), paper "
              << "footprint " << profile->paperFootprintGb
              << " GB scaled to "
              << (profile->paperFootprintGb * (1ull << 30) /
                  config.scaleFactor / (1 << 20))
              << " MB against " << (config.offchipBytes >> 20)
              << " MB off-chip + " << (config.stackedBytes >> 20)
              << " MB stacked DRAM\n\n";

    const RunResult base = runWorkload(config, OrgKind::Baseline, *profile);

    TextTable table("Where the time goes: OS-visible capacity drives "
                    "page faults");
    table.setHeader({"Design", "Visible MB", "MajorFaults", "SSD MB",
                     "Speedup"});
    const auto add = [&](OrgKind kind) {
        System system(config, kind, *profile);
        const std::uint64_t visible = system.org().visibleBytes();
        const RunResult r = system.run();
        table.addRow({r.orgName, TextTable::cell(visible >> 20),
                      TextTable::cell(r.majorFaults),
                      TextTable::cell(
                          static_cast<double>(r.storageBytes) / (1 << 20),
                          1),
                      TextTable::cell(speedup(
                          static_cast<double>(base.execTime),
                          static_cast<double>(r.execTime)))});
    };
    add(OrgKind::Baseline);
    add(OrgKind::AlloyCache);
    add(OrgKind::TlmStatic);
    add(OrgKind::TlmDynamic);
    add(OrgKind::Cameo);
    add(OrgKind::DoubleUse);
    table.print(std::cout);

    std::cout << "\nReading: the hardware cache leaves the OS with only "
                 "the off-chip capacity, so Capacity-Limited workloads "
                 "keep faulting; TLM and CAMEO add the stacked DRAM to "
                 "the address space and the fault time collapses. CAMEO "
                 "additionally manages lines like a cache, which is why "
                 "it tracks DoubleUse.\n";
    return EXIT_SUCCESS;
}
