/**
 * @file
 * SystemConfig: every knob of a simulated system, with presets.
 *
 * The paper's system (Table I) is 32 cores, 4GB stacked + 12GB off-chip
 * DRAM, and a 32MB L3. Simulating 20 billion instructions against
 * gigabytes of memory is a cluster job; CAMEO's trade-offs, however,
 * are set by *ratios* (stacked : total capacity, footprint : capacity,
 * line : page granularity), so the default preset scales every capacity
 * down by kDefaultScale while preserving all ratios and using the exact
 * Table I timing parameters. paperConfig() builds the full-size
 * configuration for capacity-math tests; tinyConfig() is for unit
 * tests.
 *
 * A SystemConfig is an OrgConfig: the memories, core count, seed,
 * timing mode, DRAM queues and per-policy design points are declared
 * once, in orgs/memory_organization.hh, and System builds its
 * organization straight from this config.
 */

#ifndef CAMEO_SYSTEM_CONFIG_HH
#define CAMEO_SYSTEM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "orgs/memory_organization.hh"
#include "sim/fidelity.hh"
#include "trace/access_source.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"
#include "util/types.hh"

namespace cameo
{

/** Full description of one simulated system. */
struct SystemConfig : OrgConfig
{
    // --- Processor (numCores is OrgConfig's) -------------------------
    /** Cycles per non-memory instruction (2-wide core: 0.5). */
    double cyclesPerInstruction = 0.5;

    /** Cap on outstanding L3 misses per core (profile.mlp also caps). */
    std::uint32_t maxMlp = 8;

    // --- Last-level cache (Table I, scaled) --------------------------
    std::uint64_t l3Bytes = 64 << 10;
    std::uint32_t l3Ways = 16;

    /** L3 load-to-use latency; misses leave for memory after this. */
    Tick l3HitLatency = 24;

    /**
     * Effective core stall per L3 *hit*: an out-of-order core hides
     * most of the pipelined 24-cycle L3 latency, so hits charge only
     * this residue. Misses still pay the full lookup before memory.
     */
    Tick l3HitStall = 6;

    // --- Storage -----------------------------------------------------
    Tick pageFaultLatency = 100'000;

    // --- Workload ------------------------------------------------------
    /** Capacity scale factor versus the paper's 16GB system. */
    double scaleFactor = 512.0;

    /** Trace length per core (L3-level accesses). */
    std::uint64_t accessesPerCore = 200'000;

    /**
     * Accesses per core consumed before measurement starts: each
     * core's source is fast-forwarded this far (AccessSource::skip)
     * before simulation, so caches and predictors see a stream that
     * is already past its cold start. 0 (the default, and the golden
     * configuration) measures from the first record.
     */
    std::uint64_t warmupAccessesPerCore = 0;

    /**
     * What the warmup prefix does (DESIGN.md §13). Skip fast-forwards
     * the trace cursor only (state stays cold; the golden
     * configuration). Functional replays the warmup records through
     * the functional access path — exact architectural state, no
     * timing — then switches to detailed mode for the measured region.
     * Detailed runs the warmup through the full timing model and
     * resets timing state at the switch; it is the (slow) reference
     * the functional path is differentially tested against. Ignored
     * when warmupAccessesPerCore is 0.
     */
    WarmupPolicy warmupPolicy = WarmupPolicy::Skip;

    /**
     * Runaway guard for the simulation kernel: maximum agent steps per
     * run (0 = unlimited). A run that hits the limit is reported as
     * truncated in RunResult — its execution time understates reality.
     */
    std::uint64_t maxKernelSteps = 0;

    /**
     * Optional access-source factory. When set, System builds each
     * core's stream from it (e.g. TraceReader replay of recorded or
     * externally produced traces) instead of the replayed trace arena
     * of the synthetic workload stream (trace/trace_arena.hh).
     * Called once per core with (core id, profile, scaled params,
     * per-core seed); must also be usable for TLM-Oracle's profiling
     * pre-pass, i.e. repeated calls with the same arguments must yield
     * streams with identical page-visit statistics.
     */
    using SourceFactory = std::function<std::unique_ptr<AccessSource>(
        std::uint32_t core, const WorkloadProfile &profile,
        const GeneratorParams &params, std::uint64_t seed)>;
    SourceFactory sourceFactory;

    /** Derive per-core generator knobs for @p profile. */
    GeneratorParams generatorParamsFor(const WorkloadProfile &profile) const;

    /** Total OS-visible capacity when stacked DRAM counts (TLM/CAMEO). */
    std::uint64_t totalMemoryBytes() const
    {
        return stackedBytes + offchipBytes;
    }
};

/** Default scaled configuration (1/512 of Table I capacities). */
SystemConfig defaultConfig();

/** Full-size Table I configuration (capacity math / documentation). */
SystemConfig paperConfig();

/** Very small configuration for fast unit tests. */
SystemConfig tinyConfig();

} // namespace cameo

#endif // CAMEO_SYSTEM_CONFIG_HH
