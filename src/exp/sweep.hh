/**
 * @file
 * Work-stealing parallel sweep engine for experiment matrices.
 *
 * Every figure/table bench runs an embarrassingly parallel matrix of
 * independent, deterministically-seeded simulations (baseline + each
 * design point, for each workload). SweepRunner executes such a job
 * list on N worker threads and returns results in submission order, so
 * serial (jobs=1) and parallel (jobs=N) sweeps are bit-identical:
 *
 *  - Each job is a pure function of its captured config: every System
 *    derives all randomness from SystemConfig::seed, owns its whole
 *    simulation state (StatRegistry included), and shares only the
 *    thread-safe AuditSink and the immutable workload registry.
 *  - Results land in a pre-sized slot per job, so assembly order is
 *    the submission order no matter which worker finishes when.
 *
 * Scheduling is work-stealing: job indices are dealt round-robin onto
 * per-worker deques; a worker pops its own queue from the front and,
 * when empty, steals from the back of a victim's queue. Long jobs
 * (capacity-limited workloads run minutes, latency-limited seconds)
 * therefore never strand idle workers behind a static partition.
 *
 * Worker count resolution: explicit SweepOptions::jobs, else the
 * CAMEO_BENCH_JOBS environment variable (strictly parsed; malformed
 * values warn and are ignored), else std::thread::hardware_concurrency.
 */

#ifndef CAMEO_EXP_SWEEP_HH
#define CAMEO_EXP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/progress.hh"
#include "exp/experiment.hh"

namespace cameo
{

/** One independent unit of sweep work. */
struct SweepJob
{
    /** Progress label, e.g. "mcf/CAMEO". */
    std::string label;

    /** Runs one simulation; must not touch shared mutable state. */
    std::function<RunResult()> run;
};

/** Knobs for one sweep. */
struct SweepOptions
{
    /** Worker threads; 0 resolves via CAMEO_BENCH_JOBS, then
     *  hardware_concurrency. 1 runs inline on the calling thread. */
    unsigned jobs = 0;

    /** Optional thread-safe progress sink (not owned). */
    ProgressReporter *progress = nullptr;

    /**
     * Non-zero: deterministically permute the submission order of the
     * internal job queues with this seed. Results are still returned
     * in submission order; the determinism tests use this to prove
     * results do not depend on execution order.
     */
    std::uint64_t shuffleSeed = 0;
};

/** Host-side measurements of the last SweepRunner::run call. */
struct SweepTelemetry
{
    std::size_t runs = 0;        ///< Jobs executed.
    unsigned workers = 0;        ///< Worker threads used.
    double wallSeconds = 0.0;    ///< End-to-end wall-clock time.
    std::vector<double> jobSeconds; ///< Per-job wall time, submission order.

    /** Aggregate throughput; 0 when nothing ran. */
    double runsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(runs) / wallSeconds
                   : 0.0;
    }
};

/** Executes job lists on a work-stealing thread pool. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {})
        : options_(options)
    {
    }

    /**
     * Run every job and return their results in submission order.
     * Reports per-job completion and a final throughput summary to the
     * configured progress reporter. If jobs threw, the first exception
     * (in submission order) is rethrown after all workers drain.
     */
    std::vector<RunResult> run(std::vector<SweepJob> jobs);

    /** Telemetry of the last run() call. */
    const SweepTelemetry &telemetry() const { return telemetry_; }

    /**
     * Resolve a requested worker count: @p requested if non-zero, else
     * CAMEO_BENCH_JOBS (strictly parsed; 0 or malformed values warn on
     * stderr and fall through), else hardware_concurrency, else 1.
     */
    static unsigned resolveJobs(unsigned requested);

  private:
    SweepOptions options_;
    SweepTelemetry telemetry_;
};

/**
 * Parallel equivalent of runComparison(): baseline plus every design
 * point over every workload, executed on the sweep engine. Results are
 * bit-identical to the serial harness for any worker count.
 */
std::vector<SpeedupRow>
runComparison(const SystemConfig &base,
              std::span<const DesignPoint> points,
              std::span<const WorkloadProfile> workloads,
              const SweepOptions &options);

} // namespace cameo

#endif // CAMEO_EXP_SWEEP_HH
