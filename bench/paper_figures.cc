/**
 * @file
 * Every paper figure and table from one program. Figure 3, Table I and
 * Figure 8 need no simulation and print first. Then every design point
 * of exp/paper.hh (Baseline, Cache, DoubleUse, the four TLM variants
 * and five CAMEO LLT x predictor settings) runs once per workload, and
 * Figures 2, 9, 12, 13, 14 and 15 and Tables II, III and IV print from
 * that one result matrix.
 *
 * CAMEO_BENCH_CSV=<path> also writes Figure 13's comparison as CSV for
 * plotting. The path is opened first, so an unwritable one fails at
 * once (exit 1) instead of after the whole run.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_common.hh"
#include "core/lead_layout.hh"
#include "core/line_location_predictor.hh"
#include "core/line_location_table.hh"
#include "dram/timings.hh"
#include "exp/paper.hh"
#include "stats/table.hh"

namespace
{

using namespace cameo;

/**
 * Figure 3: DRAM capacity and bandwidth across technologies. The paper
 * plots per-module capacity and peak bandwidth collected from public
 * specifications (DDR3, DDR4, LPDDR, HBM, HMC) to argue that stacked
 * DRAM delivers ~8x bandwidth but only a fraction of commodity
 * capacity. We tabulate the same specification data alongside the
 * derived peak bandwidths of this simulator's two Table I modules.
 */
void
printFig03()
{
    TextTable table("Figure 3: DRAM capacity and bandwidth by "
                    "technology (from public specifications)");
    table.setHeader({"Technology", "Module capacity", "Peak bandwidth",
                     "Role in paper"});
    table.addRow({"DDR3-1600 (JESD79-3)", "2-8 GB/DIMM", "12.8 GB/s/ch",
                  "commodity off-chip"});
    table.addRow({"DDR4-2400 (JESD79-4)", "4-16 GB/DIMM", "19.2 GB/s/ch",
                  "commodity off-chip"});
    table.addRow({"LPDDR2 (mobile)", "0.125-1 GB", "4.3 GB/s/ch",
                  "low-power alternative"});
    table.addRow({"HBM (JESD235)", "1-4 GB/stack", "128 GB/s/stack",
                  "stacked DRAM"});
    table.addRow({"HMC Gen2", "2-4 GB/cube", "160-240 GB/s/cube",
                  "stacked DRAM"});
    table.print(std::cout);

    const DramTimings s = stackedTimings();
    const DramTimings o = offchipTimings();
    const double cpu_ghz = s.cpuMhz / 1000.0;
    const auto gbps = [&](const DramTimings &t) {
        return t.peakBytesPerCycle() * cpu_ghz;
    };

    std::cout << "\nSimulator modules (Table I parameters):\n"
              << "  stacked : " << s.channels << " channels x "
              << s.busWidthBits << "b @ " << s.busMhz
              << "MHz DDR -> " << gbps(s) << " GB/s peak\n"
              << "  off-chip: " << o.channels << " channels x "
              << o.busWidthBits << "b @ " << o.busMhz
              << "MHz DDR -> " << gbps(o) << " GB/s peak\n"
              << "  ratio   : " << gbps(s) / gbps(o)
              << "x (the paper's ~8x stacked bandwidth advantage)\n";
}

/** One Table I configuration with its derived quantities. */
void
describeConfig(const char *title, const SystemConfig &config)
{
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

/**
 * Table I: the paper-scale and default (scaled) configurations with
 * derived quantities (idle latencies, peak bandwidths, LLT sizes, LLP
 * storage), verifying the capacity arithmetic the paper quotes (64MB
 * LLT for 16GB, 512B of LLP state, 97% useful LEAD capacity).
 */
void
printTable1()
{
    std::cout << "Reproducing Table I: system configurations\n\n";
    describeConfig("Table I at paper scale (4GB + 12GB)", paperConfig());
    describeConfig("Default scaled configuration (1/512 capacities)",
                   defaultConfig());
}

/**
 * Figure 8: analytic access-latency comparison of the LLT designs for
 * a single request serviced in isolation, in both latency units (the
 * paper normalizes stacked = 1 unit, off-chip = 2 units) and the
 * actual unloaded cycle counts of the Table I modules.
 *
 * Cases: H = requested line resident in stacked DRAM, M = resident in
 * off-chip DRAM. Paper's unit results:
 *   Baseline       M: 2
 *   Ideal-LLT      H: 1, M: 2
 *   Embedded-LLT   H: 2, M: 3
 *   Co-Located     H: 1, M: 3
 */
void
printFig08()
{
    const DramTimings stacked = stackedTimings();
    const DramTimings offchip = offchipTimings();

    const double s_line =
        static_cast<double>(stacked.idleLatency(kLineBytes));
    const double s_lead = static_cast<double>(
        stacked.idleLatency(LeadLayout::kLeadBurstBytes));
    const double o_line =
        static_cast<double>(offchip.idleLatency(kLineBytes));

    // The paper's unit: one stacked access.
    const auto units = [&](double cycles) { return cycles / s_line; };

    TextTable table("Figure 8: Unloaded access latency per LLT design "
                    "(cycles at 3.2GHz; units of one stacked access)");
    table.setHeader({"Design", "Hit cycles", "Hit units", "Miss cycles",
                     "Miss units"});

    // Baseline: every access goes off-chip.
    table.addRow({"Baseline(no stacked)", "-", "-",
                  TextTable::cell(o_line, 0),
                  TextTable::cell(units(o_line), 2)});
    // Ideal-LLT: location known instantly.
    table.addRow({"Ideal-LLT", TextTable::cell(s_line, 0),
                  TextTable::cell(units(s_line), 2),
                  TextTable::cell(o_line, 0),
                  TextTable::cell(units(o_line), 2)});
    // Embedded-LLT: LLT read, then data access.
    table.addRow({"Embedded-LLT", TextTable::cell(s_line + s_line, 0),
                  TextTable::cell(units(s_line + s_line), 2),
                  TextTable::cell(s_line + o_line, 0),
                  TextTable::cell(units(s_line + o_line), 2)});
    // Co-Located LLT: LEAD read covers LLT+data on a hit; a miss
    // serializes the off-chip access behind the LEAD read.
    table.addRow({"CoLocated-LLT", TextTable::cell(s_lead, 0),
                  TextTable::cell(units(s_lead), 2),
                  TextTable::cell(s_lead + o_line, 0),
                  TextTable::cell(units(s_lead + o_line), 2)});
    // Co-Located + correct off-chip prediction: parallel fetch.
    table.addRow({"CoLocated+LLP(correct)", TextTable::cell(s_lead, 0),
                  TextTable::cell(units(s_lead), 2),
                  TextTable::cell(std::max(s_lead, o_line), 0),
                  TextTable::cell(units(std::max(s_lead, o_line)), 2)});
    table.print(std::cout);

    std::cout << "\nNote: stacked line access = " << s_line
              << " cycles; LEAD (80B) = " << s_lead
              << " cycles; off-chip line = " << o_line
              << " cycles — the paper's 1-vs-2-unit ratio.\n";
}

} // namespace

int
main()
{
    using namespace cameo::bench;

    const char *csv_path = std::getenv("CAMEO_BENCH_CSV");
    std::ofstream csv;
    if (csv_path != nullptr) {
        csv.open(csv_path, std::ios::trunc);
        if (!csv) {
            printCannotWrite("CAMEO_BENCH_CSV", csv_path);
            return 1;
        }
    }

    // The artifacts that run no simulation, each followed by a blank
    // line (Table I ends with one already).
    printFig03();
    std::cout << "\n";
    printTable1();
    printFig08();
    std::cout << "\n";

    const std::vector<DesignPoint> points = paperPoints(benchConfig());
    const std::vector<WorkloadProfile> workloads = benchWorkloads();
    std::cout << "Reproducing the paper's evaluation: " << points.size()
              << " design points x " << workloads.size()
              << " workloads, one run each\n";
    const ResultMatrix matrix = runBenchMatrix(points, workloads);
    printPaperArtifacts(matrix, std::cout);

    if (csv_path != nullptr) {
        const bool written = writePaperCsv(csv, matrix);
        csv.close();
        if (!written || csv.fail()) {
            printCannotWrite("CAMEO_BENCH_CSV", csv_path);
            return 1;
        }
        std::cout << "\nwrote " << csv_path << "\n";
    }
    return 0;
}
