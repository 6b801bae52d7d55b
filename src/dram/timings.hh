/**
 * @file
 * DRAM timing parameters, directly mirroring Table I of the paper.
 *
 * All raw parameters are expressed in *bus* cycles (as Table I does);
 * the module converts them to CPU cycles at the core clock (3.2 GHz).
 * Data-transfer granularity is one DDR "beat" — half a bus cycle moving
 * busWidthBits of data — so odd burst lengths (the 80-byte LEAD burst
 * of CAMEO's Co-Located LLT is 5 beats on the 16-byte stacked bus) are
 * represented exactly.
 */

#ifndef CAMEO_DRAM_TIMINGS_HH
#define CAMEO_DRAM_TIMINGS_HH

#include <cstdint>

#include "util/types.hh"

namespace cameo
{

/** Static timing/geometry description of one DRAM module. */
struct DramTimings
{
    /** Core (CPU) clock in MHz; Table I: 3200. */
    std::uint32_t cpuMhz = 3200;

    /** Bus clock in MHz (DDR transfers at 2x this rate). */
    std::uint32_t busMhz = 1600;

    /** Number of independent channels. */
    std::uint32_t channels = 16;

    /** Banks per channel (single rank modeled). */
    std::uint32_t banksPerChannel = 16;

    /** Bus width per channel in bits. */
    std::uint32_t busWidthBits = 128;

    /** Row-buffer size in bytes. */
    std::uint32_t rowBytes = 2048;

    /**
     * Data lines per row used by the address map. Normally
     * rowBytes / 64; CAMEO's Co-Located LLT stores 31 LEADs per 2KB row
     * and the Alloy Cache stores 28 TADs, so those configurations
     * override this to model the reduced row occupancy.
     */
    std::uint32_t linesPerRow = 32;

    /** Timing constraints in bus cycles (Table I: 9-9-9-36). */
    std::uint32_t tCas = 9;
    std::uint32_t tRcd = 9;
    std::uint32_t tRp = 9;
    std::uint32_t tRas = 36;

    /**
     * Refresh interval and all-bank refresh duration in bus cycles
     * (DDR3: tREFI 7.8us, tRFC 260-350ns). tRefi = 0 disables refresh
     * modelling, which is the default — Table I does not specify
     * refresh parameters, so the reproduction keeps it off and
     * bench/ablations quantifies its effect.
     */
    std::uint32_t tRefi = 0;
    std::uint32_t tRfc = 0;

    /** Model DDR3-class refresh: tREFI 7.8us and tRFC 350ns at busMhz
     *  (6240 and 280 bus cycles at 800 MHz). */
    void enableDdr3Refresh()
    {
        tRefi = busMhz * 78 / 10;
        tRfc = busMhz * 35 / 100;
    }

    /** Refresh parameters converted to CPU cycles. */
    Tick refiCycles() const { return Tick{tRefi} * cpuCyclesPerBusCycle(); }
    Tick rfcCycles() const { return Tick{tRfc} * cpuCyclesPerBusCycle(); }

    /** CPU cycles per bus cycle (must divide evenly). */
    std::uint32_t cpuCyclesPerBusCycle() const { return cpuMhz / busMhz; }

    /** CPU cycles per DDR beat (half bus cycle). May round up to 1. */
    std::uint32_t cpuCyclesPerBeat() const
    {
        const std::uint32_t c = cpuCyclesPerBusCycle() / 2;
        return c == 0 ? 1 : c;
    }

    /** Bytes moved per DDR beat on one channel. */
    std::uint32_t bytesPerBeat() const { return busWidthBits / 8; }

    /** Beats needed to move @p bytes (ceiling). */
    std::uint32_t beatsFor(std::uint32_t bytes) const
    {
        return (bytes + bytesPerBeat() - 1) / bytesPerBeat();
    }

    /** Data-transfer time for @p bytes, in CPU cycles. */
    Tick burstCycles(std::uint32_t bytes) const
    {
        return static_cast<Tick>(beatsFor(bytes)) * cpuCyclesPerBeat();
    }

    /** Timing constraints converted to CPU cycles. */
    Tick casCycles() const { return Tick{tCas} * cpuCyclesPerBusCycle(); }
    Tick rcdCycles() const { return Tick{tRcd} * cpuCyclesPerBusCycle(); }
    Tick rpCycles() const { return Tick{tRp} * cpuCyclesPerBusCycle(); }
    Tick rasCycles() const { return Tick{tRas} * cpuCyclesPerBusCycle(); }

    /**
     * Unloaded (no-contention) access latency for a closed-row access
     * moving @p bytes: activate + CAS + burst. This is the "1 unit"
     * (stacked) vs "2 units" (off-chip) of the paper's Figure 8.
     */
    Tick idleLatency(std::uint32_t bytes) const
    {
        return rcdCycles() + casCycles() + burstCycles(bytes);
    }

    /** Peak bandwidth in bytes per CPU cycle, across all channels. */
    double peakBytesPerCycle() const
    {
        return static_cast<double>(bytesPerBeat()) * channels /
               cpuCyclesPerBeat();
    }
};

/** Stacked-DRAM timings from Table I (1.6GHz bus, 16ch x 128b). */
DramTimings stackedTimings();

/** Off-chip DRAM timings from Table I (800MHz bus, 8ch x 64b). */
DramTimings offchipTimings();

} // namespace cameo

#endif // CAMEO_DRAM_TIMINGS_HH
