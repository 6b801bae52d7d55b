/**
 * @file
 * Table I: baseline system configuration — echoes the paper-scale and
 * default (scaled) configurations with derived quantities (idle
 * latencies, peak bandwidths, LLT sizes, LLP storage), verifying the
 * capacity arithmetic the paper quotes (64MB LLT for 16GB, 512B of
 * LLP state, 97% useful LEAD capacity).
 */

#include <iostream>

#include "core/lead_layout.hh"
#include "core/line_location_predictor.hh"
#include "core/line_location_table.hh"
#include "stats/table.hh"
#include "system/config.hh"

namespace
{

void
describe(const char *title, const cameo::SystemConfig &config)
{
    using namespace cameo;
    TextTable table(title);
    table.setHeader({"Parameter", "Value"});
    const auto row = [&](const std::string &k, const std::string &v) {
        table.addRow({k, v});
    };
    const auto mb = [](std::uint64_t b) {
        return std::to_string(b >> 20) + " MB";
    };

    row("Cores", std::to_string(config.numCores) + " @ " +
                     std::to_string(config.stacked.cpuMhz) + " MHz, 2-wide");
    row("Shared L3", mb(config.l3Bytes) + " (" +
                         std::to_string(config.l3Bytes >> 10) + " KB), " +
                         std::to_string(config.l3Ways) + "-way, " +
                         std::to_string(config.l3HitLatency) + " cycles");
    row("Stacked DRAM", mb(config.stackedBytes) + ", " +
                            std::to_string(config.stacked.channels) +
                            " ch x " +
                            std::to_string(config.stacked.busWidthBits) +
                            "b @ " + std::to_string(config.stacked.busMhz) +
                            " MHz (DDR)");
    row("Off-chip DRAM", mb(config.offchipBytes) + ", " +
                             std::to_string(config.offchip.channels) +
                             " ch x " +
                             std::to_string(config.offchip.busWidthBits) +
                             "b @ " +
                             std::to_string(config.offchip.busMhz) +
                             " MHz (DDR)");
    row("tCAS-tRCD-tRP-tRAS", std::to_string(config.stacked.tCas) + "-" +
                                  std::to_string(config.stacked.tRcd) + "-" +
                                  std::to_string(config.stacked.tRp) + "-" +
                                  std::to_string(config.stacked.tRas) +
                                  " bus cycles (both modules)");
    row("Page fault", std::to_string(config.pageFaultLatency) + " cycles");

    // Derived.
    row("Stacked idle latency (64B)",
        std::to_string(config.stacked.idleLatency(64)) + " cycles");
    row("Off-chip idle latency (64B)",
        std::to_string(config.offchip.idleLatency(64)) + " cycles");

    const std::uint64_t stacked_lines = config.stackedBytes / kLineBytes;
    const std::uint64_t total_lines = config.totalMemoryBytes() / kLineBytes;
    const std::uint64_t groups = stacked_lines;
    const std::uint64_t k = total_lines / stacked_lines;
    row("Congruence groups",
        std::to_string(groups) + " of " + std::to_string(k) + " lines");
    const LineLocationTable llt_probe(1, static_cast<std::uint32_t>(k));
    row("LLT size (paper encoding)",
        std::to_string(groups * k * 2 / 8 >> 20) + " MB (" +
            std::to_string(groups * k * 2 / 8) + " B)");
    const LeadLayout lead(stacked_lines);
    row("LEAD useful capacity",
        TextTable::cell(100.0 * lead.usableLines() / stacked_lines, 1) +
            "% (" + std::to_string(lead.usableLines()) + " of " +
            std::to_string(stacked_lines) + " lines)");
    const LineLocationPredictor llp_probe(PredictorKind::Llp,
                                          config.numCores,
                                          static_cast<std::uint32_t>(k));
    row("LLP storage", std::to_string(llp_probe.storageBytes()) + " B (" +
                           std::to_string(config.numCores) +
                           " cores x 256 x 2b)");
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "Reproducing Table I: system configurations\n\n";
    describe("Table I at paper scale (4GB + 12GB)", cameo::paperConfig());
    describe("Default scaled configuration (1/512 capacities)",
             cameo::defaultConfig());
    return 0;
}
