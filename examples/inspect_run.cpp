/**
 * @file
 * inspect_run: run one (organization, workload) pair and dump the full
 * statistics registry — the debugging workhorse for calibrating the
 * simulator. Also prints derived quantities (hit rates, average
 * latencies, bandwidth) that the registry alone does not show.
 */

#include <iostream>
#include <optional>
#include <string>

#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/env.hh"

namespace
{

/**
 * Organization named @p name: any orgKindFromName spelling, or a CAMEO
 * variant that also selects the predictor / LLT design in @p config.
 * Empty for unknown names.
 */
std::optional<cameo::OrgKind>
parseOrg(const std::string &name, cameo::SystemConfig &config)
{
    using namespace cameo;
    if (name == "cameo-sam")
        config.llt.predictor = PredictorKind::Sam;
    else if (name == "cameo-perfect")
        config.llt.predictor = PredictorKind::Perfect;
    else if (name == "cameo-ideal")
        config.llt.kind = LltKind::Ideal;
    else if (name == "cameo-embedded")
        config.llt.kind = LltKind::Embedded;
    else
        return orgKindFromName(name);
    return OrgKind::Cameo;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cameo;

    const std::string org_name = argc > 1 ? argv[1] : "cameo";
    const std::string workload_name = argc > 2 ? argv[2] : "milc";
    const WorkloadProfile *profile = findWorkload(workload_name);
    if (profile == nullptr) {
        std::cerr << "error: unknown workload '" << workload_name
                  << "' (cameo-sim --list shows them)\n";
        return 1;
    }

    SystemConfig config = defaultConfig();
    const std::optional<OrgKind> kind = parseOrg(org_name, config);
    if (!kind) {
        std::cerr << "error: unknown org '" << org_name << "'; valid names:";
        for (const OrgKind k : allOrgKinds())
            std::cerr << ' ' << orgKindName(k);
        std::cerr << " cameo-sam cameo-perfect cameo-ideal cameo-embedded\n";
        return 1;
    }
    if (argc > 3 && parseUintStrict(argv[3], config.accessesPerCore) !=
                    ParseUintStatus::Ok) {
        std::cerr << "error: accessesPerCore: expected an unsigned 64-bit "
                     "integer, got '" << argv[3] << "'\n";
        return 1;
    }

    System system(config, *kind, *profile);
    const RunResult r = system.run();

    std::cout << "org=" << r.orgName << " workload=" << r.workload
              << " execTime=" << r.execTime << " cycles\n"
              << "accesses=" << r.accesses << " instr=" << r.instructions
              << " MPKI=" << r.mpki() << "\n"
              << "cycles/access="
              << static_cast<double>(r.execTime) *
                     config.numCores / static_cast<double>(r.accesses)
              << " (per-core trace position)\n"
              << "stackedBytes=" << r.stackedBytes
              << " offchipBytes=" << r.offchipBytes
              << " storageBytes=" << r.storageBytes << "\n"
              << "majorFaults=" << r.majorFaults
              << " minorFaults=" << r.minorFaults << "\n";
    if (r.servicedStacked + r.servicedOffchip > 0) {
        std::cout << "cameo stackedServiceFraction="
                  << r.stackedServiceFraction()
                  << " llpAccuracy=" << r.llpAccuracy << " cases=[";
        for (int i = 0; i < 5; ++i)
            std::cout << r.llpCases[i] << (i < 4 ? "," : "]\n");
    }
    std::cout << "\n--- full registry ---\n";
    system.stats().dump(std::cout);

    // Latency histograms (when the distribution has buckets).
    for (const Distribution *d : system.stats().distributions()) {
        if (d->buckets().empty() || d->count() == 0)
            continue;
        std::cout << "histogram " << d->name() << " (bucket "
                  << d->bucketWidth() << "):";
        for (std::size_t i = 0; i < d->buckets().size(); ++i) {
            if (d->buckets()[i])
                std::cout << " [" << i * d->bucketWidth() << "]="
                          << d->buckets()[i];
        }
        std::cout << " overflow=" << d->overflow() << "\n";
    }
    return 0;
}
