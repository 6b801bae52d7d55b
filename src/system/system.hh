/**
 * @file
 * System: one complete simulated machine — cores + shared L3 + virtual
 * memory + one memory organization — and the RunResult it produces.
 */

#ifndef CAMEO_SYSTEM_SYSTEM_HH
#define CAMEO_SYSTEM_SYSTEM_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "orgs/memory_organization.hh"
#include "sim/kernel.hh"
#include "snapshot/snapshot.hh"
#include "stats/registry.hh"
#include "system/config.hh"
#include "system/cpu_core.hh"
#include "trace/workloads.hh"
#include "vm/virtual_memory.hh"

namespace cameo
{

/** Everything a bench or test needs from one simulation run. */
struct RunResult
{
    std::string orgName;
    std::string workload;
    WorkloadCategory category = WorkloadCategory::LatencyLimited;

    /** Execution time: completion of the slowest core (rate mode). */
    Tick execTime = 0;

    /** Agent steps the kernel executed for this run. */
    std::uint64_t kernelSteps = 0;

    /**
     * True when the run stopped at SystemConfig::maxKernelSteps with
     * unfinished cores: execTime and all counters understate the full
     * run and must not be compared against untruncated results.
     */
    bool truncated = false;

    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;

    /**
     * Accesses consumed warming state before the measured region
     * (summed over cores). 0 under WarmupPolicy::Skip — skipped
     * records never touch the simulated machine. Not included in
     * accesses or any other measured statistic.
     */
    std::uint64_t warmupAccesses = 0;

    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;

    /** Bus traffic per module (Table IV's raw numbers). */
    std::uint64_t stackedBytes = 0;
    std::uint64_t offchipBytes = 0;
    std::uint64_t storageBytes = 0;

    std::uint64_t majorFaults = 0;
    std::uint64_t minorFaults = 0;

    /** CAMEO-specific (zero for other organizations). */
    std::uint64_t servicedStacked = 0;
    std::uint64_t servicedOffchip = 0;
    std::uint64_t swaps = 0;
    std::array<std::uint64_t, 5> llpCases{};
    double llpAccuracy = 0.0;

    /** TLM-specific. */
    std::uint64_t pageMigrations = 0;

    /**
     * Fold another run's result into this one (sharded-sweep / fleet
     * aggregation). Count and byte fields add; execTime takes the
     * slower of the two (rate-mode semantics: the fleet finishes when
     * its slowest member does); truncated ORs; llpAccuracy is
     * re-derived from the merged llpCases tallies, exactly as
     * LineLocationPredictor::accuracy() defines it. orgName/workload
     * are kept when equal and join with '+' when they differ; category
     * keeps this result's value.
     */
    void merge(const RunResult &other);

    /** Measured L3 misses per thousand instructions. */
    double mpki() const
    {
        if (instructions == 0)
            return 0.0;
        return 1000.0 * static_cast<double>(l3Misses) /
               static_cast<double>(instructions);
    }

    /** Fraction of CAMEO accesses serviced by stacked memory. */
    double stackedServiceFraction() const
    {
        const std::uint64_t total = servicedStacked + servicedOffchip;
        if (total == 0)
            return 0.0;
        return static_cast<double>(servicedStacked) /
               static_cast<double>(total);
    }
};

/** A complete simulated machine for one (organization, workload) pair. */
class System
{
  public:
    /**
     * Builds the organization, sizes virtual memory by its OS-visible
     * capacity, and instantiates rate-mode cores (every core runs
     * @p profile with a distinct seed, the paper's methodology). For
     * TLM-Oracle the constructor also runs the profiling pass and
     * injects page heat.
     */
    System(const SystemConfig &config, OrgKind kind,
           const WorkloadProfile &profile);

    /**
     * Multi-programmed variant: core i runs profiles[i % size]. This
     * extends the paper's rate-mode methodology to heterogeneous mixes
     * (e.g. a capacity hog next to latency-sensitive neighbours).
     */
    System(const SystemConfig &config, OrgKind kind,
           const std::vector<WorkloadProfile> &profiles);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run (the rest of) the simulation to completion and collect
     * results. May follow any number of runUntil() segments and/or a
     * restore(); the result is bit-identical to an uninterrupted run.
     * Call once.
     */
    RunResult run();

    /**
     * Run until the cores have processed @p total_accesses measured
     * accesses in aggregate (across all cores), then pause with the
     * memory system mid-flight — the natural point to save() a
     * checkpoint. Returns true if the target paused the run, false if
     * every core finished first.
     */
    bool runUntil(std::uint64_t total_accesses);

    /** Measured accesses processed so far, summed over cores. */
    std::uint64_t totalAccesses() const;

    /**
     * Serialize the full simulation state as snapshot sections:
     * "meta" (configuration fingerprint, verified on restore), "stats"
     * (every registered counter/distribution), "vm", "llc", "core.N"
     * per core, and "org" (organization + DRAM modules + in-flight
     * transactions). Restoring into a freshly constructed System with
     * the same configuration and then running to completion produces
     * byte-identical statistics to the uninterrupted run. The restoring
     * config may enlarge accessesPerCore (cameo-sim --restore with a
     * larger --accesses).
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    /** save() framed and written to @p path; false + message on error. */
    bool saveSnapshot(const std::string &path,
                      std::string *error = nullptr) const;

    /** Read @p path, validate, restore(); false + message on error. */
    bool restoreSnapshot(const std::string &path,
                         std::string *error = nullptr);

    MemoryOrganization &org() { return *org_; }
    VirtualMemory &vm() { return *vm_; }
    SetAssocCache &llc() { return llc_; }
    StatRegistry &stats() { return registry_; }

  private:
    /** Profile core @p c runs. */
    const WorkloadProfile &profileFor(std::uint32_t c) const
    {
        return profiles_[c % profiles_.size()];
    }

    /**
     * Bind the organization to the kernel's event queue (Queued mode)
     * if not already bound / unbind it (flushes the drained-queue
     * audit). Binding is lazy so a checkpointed system keeps its
     * pipeline live between segments.
     */
    void bindEvents();
    void unbindEvents();

    /**
     * One kernel segment: run until all cores finish, the remaining
     * step budget is exhausted, or (when not kNoTarget) the aggregate
     * processed-access target is reached.
     */
    static constexpr std::uint64_t kNoTarget = ~std::uint64_t{0};
    void runSegment(std::uint64_t target_accesses);

    /**
     * Run the warmup phase once, before the first kernel segment
     * (DESIGN.md §13). Skip policy does nothing (sources were
     * fast-forwarded at construction). Functional replays the warmup
     * records through the tight functional loop; Detailed runs them
     * through the full timing model. Both then pass the switch barrier
     * (enterMeasuredRegion) into detailed mode.
     */
    void ensureWarmup();

    /** Batch-refilled, record-major round-robin functional replay of
     *  the warmup prefix of every core's stream, with the
     *  organization switched to Functional fidelity for the loop. */
    void runFunctionalWarmup();

    /** Full-timing warmup: cores run their warmup-length trace to
     *  completion (a natural drain barrier). The kernel step budget
     *  and kernelSteps accounting apply to the measured region only. */
    void runDetailedWarmup();

    /**
     * The warmup→measured switch: reset DRAM timing state (banks,
     * buses, queues, protocol auditor), zero every registered
     * statistic, and rewind each core's execution progress — the
     * measured region starts from a cold pipeline over warm
     * architectural state. Also credits fidelity.warmupAccesses.
     */
    void enterMeasuredRegion();

    /** One record through VM -> L3 -> organization, untimed (same
     *  call order as CpuCore::finishAccess). */
    void functionalAccess(std::uint32_t core, const Access &acc);

    SystemConfig config_;
    OrgKind kind_;
    std::vector<WorkloadProfile> profiles_;

    std::unique_ptr<MemoryOrganization> org_;
    std::unique_ptr<VirtualMemory> vm_;
    SetAssocCache llc_; ///< The shared L3.
    std::vector<std::unique_ptr<CpuCore>> cores_;
    StatRegistry registry_;

    SimKernel kernel_;
    bool eventsBound_ = false;

    /** Agent steps accumulated across segments (and via restore()). */
    std::uint64_t kernelSteps_ = 0;
    bool truncated_ = false;
    bool finished_ = false;

    /** Warmup phase already executed (or not configured). */
    bool warmupDone_ = false;

    /** Registered only under a non-Skip warmup policy, so Skip-mode
     *  stat dumps (the golden configurations) are unchanged. */
    Counter warmupAccesses_{"fidelity.warmupAccesses",
                            "accesses consumed warming state before "
                            "the measured region"};
};

/** Convenience: build a System and run it. */
RunResult runWorkload(const SystemConfig &config, OrgKind kind,
                      const WorkloadProfile &profile);

/** Convenience: build a multi-programmed System and run it. */
RunResult runMix(const SystemConfig &config, OrgKind kind,
                 const std::vector<WorkloadProfile> &profiles);

} // namespace cameo

#endif // CAMEO_SYSTEM_SYSTEM_HH
