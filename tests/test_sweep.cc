/**
 * @file
 * Tests for the parallel sweep engine (src/exp): determinism proofs
 * that serial and parallel sweeps are bit-identical (including under
 * shuffled job-submission order), ordering and error-propagation
 * semantics of SweepRunner, worker-count resolution from
 * CAMEO_BENCH_JOBS, and multi-threaded hammer tests for the shared
 * AuditSink and the ProgressReporter (run under the tsan preset in
 * CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hh"
#include "exp/experiment.hh"
#include "exp/progress.hh"
#include "exp/sweep.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

namespace cameo
{
namespace
{

/** Small, fast config shared by the determinism tests. */
SystemConfig
sweepConfig()
{
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 4000;
    return config;
}

/** The three-workload x five-design-point matrix under test. */
std::vector<WorkloadProfile>
sweepWorkloads()
{
    return {*findWorkload("mcf"), *findWorkload("milc"),
            *findWorkload("soplex")};
}

std::vector<DesignPoint>
sweepPoints(const SystemConfig &config)
{
    return {
        DesignPoint{"Baseline", OrgKind::Baseline, config},
        DesignPoint{"Cache", OrgKind::AlloyCache, config},
        DesignPoint{"TLM-Static", OrgKind::TlmStatic, config},
        DesignPoint{"CAMEO", OrgKind::Cameo, config},
        DesignPoint{"Banshee", OrgKind::Banshee, config},
    };
}

/** Asserts every field of two RunResults is bit-identical. */
void
expectRunResultsIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.orgName, b.orgName);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.kernelSteps, b.kernelSteps);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.l3Hits, b.l3Hits);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.stackedBytes, b.stackedBytes);
    EXPECT_EQ(a.offchipBytes, b.offchipBytes);
    EXPECT_EQ(a.storageBytes, b.storageBytes);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.servicedStacked, b.servicedStacked);
    EXPECT_EQ(a.servicedOffchip, b.servicedOffchip);
    EXPECT_EQ(a.swaps, b.swaps);
    for (int c = 0; c < 5; ++c)
        EXPECT_EQ(a.llpCases[c], b.llpCases[c]);
    // Exact double equality on purpose: both values come from the
    // same binary running the same integer-counter arithmetic.
    EXPECT_EQ(a.llpAccuracy, b.llpAccuracy);
    EXPECT_EQ(a.pageMigrations, b.pageMigrations);
}

void
expectMatricesIdentical(const ResultMatrix &a, const ResultMatrix &b)
{
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    ASSERT_EQ(a.points.size(), b.points.size());
    ASSERT_EQ(a.runs.size(), a.workloads.size() * a.points.size());
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t w = 0; w < a.workloads.size(); ++w) {
        SCOPED_TRACE(a.workloads[w].name);
        EXPECT_EQ(a.workloads[w].name, b.workloads[w].name);
        for (std::size_t p = 0; p < a.points.size(); ++p)
            expectRunResultsIdentical(a.at(p, w), b.at(p, w));
    }
}

ResultMatrix
comparisonWith(unsigned jobs, std::uint64_t shuffle_seed = 0)
{
    const SystemConfig config = sweepConfig();
    const auto workloads = sweepWorkloads();
    const auto points = sweepPoints(config);
    SweepOptions options;
    options.jobs = jobs;
    options.shuffleSeed = shuffle_seed;
    return runMatrix(points, workloads, options);
}

TEST(SweepDeterminismTest, SerialAndParallelComparisonsBitIdentical)
{
    const auto serial = comparisonWith(1);
    const auto parallel = comparisonWith(8);
    expectMatricesIdentical(serial, parallel);
}

TEST(SweepDeterminismTest, ShuffledSubmissionOrderBitIdentical)
{
    const auto serial = comparisonWith(1);
    // Two different shuffles of the internal queues: execution order
    // differs, reassembled results must not.
    expectMatricesIdentical(serial, comparisonWith(8, 0xBEEF));
    expectMatricesIdentical(serial, comparisonWith(3, 0xFEEDFACE));
}

TEST(SweepDeterminismTest, RepeatedRunsIdenticalRegardlessOfHostThread)
{
    // Per-run RNG seeding depends only on SystemConfig::seed, never on
    // which host thread executes the run: the same workload simulated
    // on the main thread and on a worker thread amid seven concurrent
    // sibling simulations must produce identical stat registries.
    const SystemConfig config = sweepConfig();
    const WorkloadProfile wl = *findWorkload("milc");

    System reference(config, OrgKind::Cameo, wl);
    reference.run();
    std::ostringstream expected;
    reference.stats().dumpJson(expected);

    std::vector<std::string> dumps(8);
    std::vector<std::thread> threads;
    threads.reserve(dumps.size());
    for (std::size_t t = 0; t < dumps.size(); ++t) {
        threads.emplace_back([&config, &wl, &dumps, t] {
            System system(config, OrgKind::Cameo, wl);
            system.run();
            std::ostringstream os;
            system.stats().dumpJson(os);
            dumps[t] = os.str();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (const std::string &dump : dumps)
        EXPECT_EQ(dump, expected.str());
}

TEST(SweepRunnerTest, ResultsComeBackInSubmissionOrder)
{
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 20; ++i) {
        jobs.push_back({"job" + std::to_string(i), [i] {
                            RunResult r;
                            r.orgName = "org" + std::to_string(i);
                            r.execTime = static_cast<Tick>(100 + i);
                            return r;
                        }});
    }
    SweepOptions options;
    options.jobs = 4;
    options.shuffleSeed = 0xDEADBEEF; // scramble execution order
    SweepRunner runner(options);
    const auto results = runner.run(std::move(jobs));
    ASSERT_EQ(results.size(), 20u);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(results[i].orgName, "org" + std::to_string(i));
        EXPECT_EQ(results[i].execTime, static_cast<Tick>(100 + i));
    }
    EXPECT_EQ(runner.telemetry().runs, 20u);
    EXPECT_EQ(runner.telemetry().workers, 4u);
    EXPECT_EQ(runner.telemetry().jobSeconds.size(), 20u);
    EXPECT_GT(runner.telemetry().wallSeconds, 0.0);
}

TEST(SweepRunnerTest, EmptyJobListIsANoOp)
{
    SweepRunner runner;
    EXPECT_TRUE(runner.run({}).empty());
    EXPECT_EQ(runner.telemetry().runs, 0u);
}

TEST(SweepRunnerTest, PropagatesFirstJobException)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({"ok", [] { return RunResult{}; }});
    jobs.push_back({"boom", []() -> RunResult {
                        throw std::runtime_error("job failed");
                    }});
    SweepOptions options;
    options.jobs = 2;
    EXPECT_THROW(SweepRunner(options).run(std::move(jobs)),
                 std::runtime_error);
}

TEST(SweepRunnerTest, ProgressCountsEveryJob)
{
    std::ostringstream os;
    ProgressReporter progress(&os);
    SweepOptions options;
    options.jobs = 3;
    options.progress = &progress;
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 9; ++i)
        jobs.push_back({"j" + std::to_string(i), [] {
                            return RunResult{};
                        }});
    SweepRunner(options).run(std::move(jobs));
    EXPECT_EQ(progress.finished(), 9u);
    // 9 per-job lines plus the throughput summary.
    const std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 10);
    EXPECT_NE(text.find("sweep: 9 runs in"), std::string::npos);
}

/** Scoped env-var override that restores the old value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr)
            saved_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (saved_.has_value())
            ::setenv(name_, saved_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

TEST(SweepJobsResolutionTest, ExplicitCountWinsOverEnvironment)
{
    const ScopedEnv env("CAMEO_BENCH_JOBS", "5");
    EXPECT_EQ(SweepRunner::resolveJobs(3), 3u);
}

TEST(SweepJobsResolutionTest, EnvironmentUsedWhenAuto)
{
    const ScopedEnv env("CAMEO_BENCH_JOBS", "5");
    EXPECT_EQ(SweepRunner::resolveJobs(0), 5u);
}

TEST(SweepJobsResolutionTest, MalformedEnvironmentFallsBackToHardware)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned expected = hw != 0 ? hw : 1;
    {
        const ScopedEnv env("CAMEO_BENCH_JOBS", "8x");
        EXPECT_EQ(SweepRunner::resolveJobs(0), expected);
    }
    {
        const ScopedEnv env("CAMEO_BENCH_JOBS", "0");
        EXPECT_EQ(SweepRunner::resolveJobs(0), expected);
    }
    {
        const ScopedEnv env("CAMEO_BENCH_JOBS", nullptr);
        EXPECT_EQ(SweepRunner::resolveJobs(0), expected);
    }
}

/**
 * Hammer tests: the shared pieces of the sweep engine must tolerate
 * unsynchronized callers. Run under CAMEO_SANITIZE=thread in CI.
 */
class SweepHammerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        AuditSink::global().reset();
        // These tests inject failures on purpose; never abort (the
        // sanitizer CI jobs export CAMEO_AUDIT_ABORT=1).
        AuditSink::global().setAbortOnFailure(false);
    }

    void TearDown() override { AuditSink::global().reset(); }
};

TEST_F(SweepHammerTest, AuditSinkCountsConcurrentFailuresExactly)
{
    constexpr int kThreads = 8;
    constexpr int kFailuresPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kFailuresPerThread; ++i) {
                AuditSink::global().fail("hammer.cc", t,
                                         "concurrent failure");
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(AuditSink::global().failures(),
              static_cast<std::uint64_t>(kThreads) * kFailuresPerThread);
    EXPECT_NE(AuditSink::global().firstFailure().find("hammer.cc"),
              std::string::npos);

    AuditSink::global().reset();
    EXPECT_EQ(AuditSink::global().failures(), 0u);
    EXPECT_TRUE(AuditSink::global().firstFailure().empty());
}

TEST_F(SweepHammerTest, AuditSinkReadersRaceWritersSafely)
{
    constexpr int kWriters = 4;
    constexpr int kOps = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kOps; ++i)
                AuditSink::global().fail("race.cc", i, "writer");
        });
    }
    // Concurrent readers of the mutable state.
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            std::uint64_t sum = 0;
            for (int i = 0; i < kOps; ++i) {
                sum += AuditSink::global().failures();
                sum += AuditSink::global().firstFailure().size();
            }
            EXPECT_GE(sum, 0u);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(AuditSink::global().failures(),
              static_cast<std::uint64_t>(kWriters) * kOps);
}

TEST_F(SweepHammerTest, ProgressReporterSerializesWholeLines)
{
    constexpr int kThreads = 8;
    constexpr int kJobsPerThread = 500;
    std::ostringstream os;
    ProgressReporter progress(&os);
    progress.setTotal(kThreads * kJobsPerThread);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&progress, t] {
            for (int i = 0; i < kJobsPerThread; ++i) {
                progress.jobFinished(
                    "w" + std::to_string(t) + "-" + std::to_string(i),
                    0.001);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(progress.finished(),
              static_cast<std::size_t>(kThreads) * kJobsPerThread);

    // Every emitted line is whole: starts with the "  [" prefix and
    // ends with the "(...)" timing suffix — no interleaved fragments.
    std::istringstream lines(os.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        ++count;
        EXPECT_EQ(line.rfind("  [", 0), 0u) << line;
        ASSERT_GE(line.size(), 7u);
        EXPECT_EQ(line.substr(line.size() - 7), "(0.00s)") << line;
    }
    EXPECT_EQ(count, static_cast<std::size_t>(kThreads) * kJobsPerThread);
}

TEST_F(SweepHammerTest, ConcurrentSweepsOfRealSystemsStayClean)
{
    // Eight real simulations through the engine with every worker
    // hitting the global AuditSink path; no failures may be recorded
    // and every slot must be filled.
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 1500;
    const WorkloadProfile wl = *findWorkload("milc");
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 8; ++i) {
        const OrgKind kind =
            i % 2 == 0 ? OrgKind::Cameo : OrgKind::AlloyCache;
        jobs.push_back({"sys" + std::to_string(i), [config, kind, wl] {
                            return runWorkload(config, kind, wl);
                        }});
    }
    SweepOptions options;
    options.jobs = 8;
    const auto results = SweepRunner(options).run(std::move(jobs));
    ASSERT_EQ(results.size(), 8u);
    for (const RunResult &r : results)
        EXPECT_GT(r.execTime, 0u);
    EXPECT_EQ(AuditSink::global().failures(), 0u)
        << AuditSink::global().firstFailure();
}

} // namespace
} // namespace cameo
