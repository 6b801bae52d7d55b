/**
 * @file
 * Tests for the invariant-audit subsystem (src/check): the AuditSink,
 * the four concrete auditors, the kernel step-limit reporting, and a
 * property test that drives a CameoController with random traces under
 * every LLT design and asserts the LLT permutation invariant end to
 * end.
 *
 * The auditors report to the process-global AuditSink in every build;
 * only the inline hot-path CAMEO_AUDIT instrumentation is compiled out
 * when the CAMEO_AUDIT build option is OFF. Tests that rely on the
 * hot-path hooks gate their expectations on kAuditEnabled so the suite
 * is meaningful in both configurations.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/audit.hh"
#include "check/dram_protocol_auditor.hh"
#include "check/kernel_auditor.hh"
#include "check/llt_auditor.hh"
#include "check/stat_auditor.hh"
#include "core/cameo_controller.hh"
#include "core/line_location_table.hh"
#include "dram/dram_module.hh"
#include "sim/kernel.hh"
#include "stats/counter.hh"
#include "system/system.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

/**
 * Resets the global sink around every test so cases are independent.
 * Abort-on-failure (CAMEO_AUDIT_ABORT) is forced off: these tests
 * inject violations on purpose and assert on the sink's counters.
 */
class CheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        AuditSink::global().reset();
        AuditSink::global().setAbortOnFailure(false);
    }

    void TearDown() override { AuditSink::global().reset(); }
};

using AuditSinkTest = CheckTest;
using LltAuditorTest = CheckTest;
using DramProtocolAuditorTest = CheckTest;
using KernelAuditorTest = CheckTest;
using StatAuditorTest = CheckTest;
using StepLimitTest = CheckTest;
using LltPropertyTest = CheckTest;

TEST_F(AuditSinkTest, CountsAndCapturesFirstFailure)
{
    AuditSink &sink = AuditSink::global();
    EXPECT_EQ(sink.failures(), 0u);
    EXPECT_TRUE(sink.firstFailure().empty());

    sink.fail("f.cc", 10, "first problem");
    sink.fail("g.cc", 20, "second problem");
    EXPECT_EQ(sink.failures(), 2u);
    // Only the first failure's location/message is kept.
    EXPECT_NE(sink.firstFailure().find("f.cc:10"), std::string::npos);
    EXPECT_NE(sink.firstFailure().find("first problem"), std::string::npos);
    EXPECT_EQ(sink.firstFailure().find("second"), std::string::npos);

    sink.reset();
    EXPECT_EQ(sink.failures(), 0u);
    EXPECT_TRUE(sink.firstFailure().empty());
}

TEST_F(LltAuditorTest, CleanTablePasses)
{
    LineLocationTable llt(16, 4);
    LltAuditor auditor;
    EXPECT_EQ(auditor.auditAll(llt), 0u);
    EXPECT_EQ(auditor.groupsChecked(), 16u);
    EXPECT_EQ(auditor.violations(), 0u);
    EXPECT_EQ(AuditSink::global().failures(), 0u);
}

TEST_F(LltAuditorTest, SwappedTableStillPasses)
{
    LineLocationTable llt(8, 4);
    LltAuditor auditor;
    llt.swapSlots(3, 0, 2);
    llt.swapSlots(3, 1, 3);
    llt.swapSlots(5, 0, 1);
    EXPECT_EQ(auditor.auditAll(llt), 0u);
    EXPECT_EQ(AuditSink::global().failures(), 0u);
}

TEST_F(LltAuditorTest, CatchesDuplicatedLocation)
{
    LineLocationTable llt(8, 4);
    // Corrupt group 3: slot 1 claims the same location as slot 0, so
    // the entry is no longer a permutation.
    llt.poke(3, 1, llt.locationOf(3, 0));
    ASSERT_FALSE(llt.verifyGroup(3));

    LltAuditor auditor;
    EXPECT_FALSE(auditor.checkGroup(llt, 3));
    EXPECT_EQ(auditor.auditAll(llt), 1u);
    EXPECT_GE(auditor.violations(), 1u);
    EXPECT_GE(AuditSink::global().failures(), 1u);
    EXPECT_NE(AuditSink::global().firstFailure().find("group 3"),
              std::string::npos);
}

TEST_F(LltAuditorTest, CatchesOutOfRangeLocation)
{
    LineLocationTable llt(8, 4);
    llt.poke(6, 2, 7); // valid locations are 0..3
    LltAuditor auditor;
    EXPECT_FALSE(auditor.checkGroup(llt, 6));
    EXPECT_EQ(auditor.auditAll(llt), 1u);
    EXPECT_GE(AuditSink::global().failures(), 1u);
}

TEST_F(DramProtocolAuditorTest, LegalSequencePasses)
{
    const DramProtocolParams p{18, 72, 18}; // tRCD/tRAS/tRP in cycles
    DramProtocolAuditor audit("dev", 2, 2, p);

    audit.onActivate(0, 0, 5, 100);
    audit.onColumn(0, 0, 5, 118);  // >= ACT + tRCD
    audit.onColumn(0, 0, 5, 130);  // row hit
    audit.onPrecharge(0, 0, 172);  // >= ACT + tRAS
    audit.onActivate(0, 0, 6, 190); // >= PRE + tRP and >= ACT + tRC
    audit.onColumn(0, 0, 6, 208);
    // An independent bank has independent state.
    audit.onActivate(1, 1, 5, 0);
    audit.onColumn(1, 1, 5, 18);

    EXPECT_EQ(audit.violations(), 0u);
    EXPECT_EQ(audit.commandsChecked(), 8u);
    EXPECT_EQ(AuditSink::global().failures(), 0u);
}

TEST_F(DramProtocolAuditorTest, CatchesColumnToWrongRow)
{
    const DramProtocolParams p{18, 72, 18};
    DramProtocolAuditor audit("dev", 1, 1, p);
    audit.onActivate(0, 0, 5, 0);
    audit.onColumn(0, 0, 9, 50); // row 9 is not open
    EXPECT_EQ(audit.violations(), 1u);
    EXPECT_NE(AuditSink::global().firstFailure().find("CAS to row 9"),
              std::string::npos);
}

TEST_F(DramProtocolAuditorTest, CatchesTimingWindowViolations)
{
    const DramProtocolParams p{18, 72, 18};
    DramProtocolAuditor audit("dev", 1, 1, p);

    audit.onActivate(0, 0, 5, 100);
    audit.onColumn(0, 0, 5, 110); // tRCD violated (needs >= 118)
    EXPECT_EQ(audit.violations(), 1u);

    audit.onPrecharge(0, 0, 120); // tRAS violated (needs >= 172)
    EXPECT_EQ(audit.violations(), 2u);

    audit.onActivate(0, 0, 6, 125); // tRP and tRC violated
    EXPECT_EQ(audit.violations(), 4u);
}

TEST_F(DramProtocolAuditorTest, CatchesActivateOnOpenBank)
{
    const DramProtocolParams p{18, 72, 18};
    DramProtocolAuditor audit("dev", 1, 1, p);
    audit.onActivate(0, 0, 5, 0);
    audit.onActivate(0, 0, 6, 1000); // never precharged row 5
    EXPECT_GE(audit.violations(), 1u);
    EXPECT_NE(AuditSink::global().firstFailure().find("still open"),
              std::string::npos);
}

TEST_F(DramProtocolAuditorTest, RealModuleCommandStreamIsLegal)
{
    // Drive a real DramModule hard (row hits, conflicts, out-of-order
    // arrival times). In CAMEO_AUDIT builds the module's shadow
    // auditor validates every implied command; the run must be clean.
    DramModule mod("t.dev", offchipTimings(), 4 << 20);
    Rng rng(7);
    Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        // Jittered, occasionally regressing arrival times.
        now += rng.next(200);
        const Tick at = now - rng.next(std::min<std::uint64_t>(now, 50));
        mod.request(at, rng.next(mod.capacityLines()), rng.chance(0.3),
                    kLineBytes);
    }
    EXPECT_EQ(AuditSink::global().failures(), 0u);
}

TEST_F(KernelAuditorTest, MonotonicRunPasses)
{
    KernelAuditor audit;
    audit.onDispatch(0, 10);
    audit.onStepped(0, 10, 15);
    audit.onDispatch(1, 12);
    audit.onStepped(1, 12, 12); // zero-cost step is legal
    audit.onDispatch(0, 15);
    audit.onStepped(0, 15, 30);
    EXPECT_EQ(audit.violations(), 0u);
    EXPECT_EQ(audit.dispatches(), 3u);
    EXPECT_EQ(AuditSink::global().failures(), 0u);
}

TEST_F(KernelAuditorTest, CatchesGlobalTimeRegression)
{
    KernelAuditor audit;
    audit.onDispatch(0, 100);
    audit.onDispatch(1, 50); // global time went backwards
    EXPECT_EQ(audit.violations(), 1u);
    EXPECT_NE(AuditSink::global().firstFailure().find("regressing"),
              std::string::npos);
}

TEST_F(KernelAuditorTest, CatchesLocalClockRegression)
{
    KernelAuditor audit;
    audit.onDispatch(0, 100);
    audit.onStepped(0, 100, 40); // agent stepped backwards
    EXPECT_EQ(audit.violations(), 1u);
    EXPECT_NE(AuditSink::global().firstFailure().find("backwards"),
              std::string::npos);
}

TEST_F(StatAuditorTest, CatchesDuplicateNames)
{
    StatAuditor audit;
    EXPECT_TRUE(audit.onRegister("a.count"));
    EXPECT_TRUE(audit.onRegister("b.count"));
    EXPECT_FALSE(audit.onRegister("a.count"));
    EXPECT_EQ(audit.violations(), 1u);
    EXPECT_EQ(audit.namesRegistered(), 2u);
    EXPECT_NE(AuditSink::global().firstFailure().find("a.count"),
              std::string::npos);
    audit.reset();
    EXPECT_TRUE(audit.onRegister("a.count"));
}

/** Agent advancing a fixed number of steps, 10 ticks each. */
class CountingAgent : public Agent
{
  public:
    explicit CountingAgent(std::uint64_t total) : remaining_(total) {}

    Tick nextReadyTick() const override { return tick_; }
    bool done() const override { return remaining_ == 0; }

    void
    step() override
    {
        tick_ += 10;
        --remaining_;
    }

  private:
    Tick tick_ = 0;
    std::uint64_t remaining_;
};

TEST_F(StepLimitTest, KernelReportsTruncation)
{
    CountingAgent a(100), b(100);
    SimKernel kernel;
    kernel.addAgent(&a);
    kernel.addAgent(&b);

    kernel.run(25);
    EXPECT_EQ(kernel.stepsExecuted(), 25u);
    EXPECT_TRUE(kernel.hitStepLimit());

    // Resuming without a limit finishes the remaining work.
    kernel.run();
    EXPECT_EQ(kernel.stepsExecuted(), 175u);
    EXPECT_FALSE(kernel.hitStepLimit());
    EXPECT_EQ(AuditSink::global().failures(), 0u);
}

TEST_F(StepLimitTest, KernelCompletesWithoutLimit)
{
    CountingAgent a(50);
    SimKernel kernel;
    kernel.addAgent(&a);
    const Tick finish = kernel.run();
    EXPECT_EQ(finish, 500u);
    EXPECT_EQ(kernel.stepsExecuted(), 50u);
    EXPECT_FALSE(kernel.hitStepLimit());
}

TEST_F(StepLimitTest, SystemSurfacesTruncation)
{
    SystemConfig config = tinyConfig();
    config.maxKernelSteps = 10;
    RunResult r = runWorkload(config, OrgKind::Cameo, *findWorkload("milc"));
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.kernelSteps, 10u);

    config.maxKernelSteps = 0;
    RunResult full =
        runWorkload(config, OrgKind::Cameo, *findWorkload("milc"));
    EXPECT_FALSE(full.truncated);
    EXPECT_GT(full.kernelSteps, 10u);
    EXPECT_GT(full.execTime, r.execTime);
}

/**
 * An Agent that illegally steps its clock backwards once. With the
 * CAMEO_AUDIT build option ON the kernel's auditor must flag it; with
 * the option OFF the hot-path hook is compiled out and nothing fires.
 */
class RegressingAgent : public Agent
{
  public:
    Tick nextReadyTick() const override { return tick_; }
    bool done() const override { return steps_ >= 2; }

    void
    step() override
    {
        tick_ = steps_ == 0 ? 100 : 40; // second step regresses
        ++steps_;
    }

  private:
    Tick tick_ = 50;
    int steps_ = 0;
};

TEST_F(StepLimitTest, KernelHotPathAuditCatchesRegressingAgent)
{
    RegressingAgent bad;
    SimKernel kernel;
    kernel.addAgent(&bad);
    kernel.run();
    if (kAuditEnabled)
        EXPECT_GE(AuditSink::global().failures(), 1u);
    else
        EXPECT_EQ(AuditSink::global().failures(), 0u);
    AuditSink::global().reset();
}

/** Small CAMEO stack for the property test (mirrors the unit fixture). */
class PropertyFixture
{
  public:
    explicit PropertyFixture(LltKind llt)
    {
        DramTimings st = stackedTimings();
        const std::uint64_t stacked_bytes = 1 << 20;
        if (llt == LltKind::CoLocated)
            st.linesPerRow = LeadLayout::kLeadsPerRow;
        std::uint64_t module_bytes = stacked_bytes;
        if (llt == LltKind::Embedded) {
            module_bytes += CameoController::lltReserveLines(
                                stacked_bytes / 64, 4) *
                            64;
        }
        stacked = std::make_unique<DramModule>("p.stk", st, module_bytes);
        offchip = std::make_unique<DramModule>("p.off", offchipTimings(),
                                               3 << 20);
        ctrl = std::make_unique<CameoController>(
            CameoParams{llt, PredictorKind::Llp, 4}, *stacked, *offchip,
            stacked_bytes / 64, (4ull << 20) / 64);
    }

    std::unique_ptr<DramModule> stacked;
    std::unique_ptr<DramModule> offchip;
    std::unique_ptr<CameoController> ctrl;
};

TEST_F(LltPropertyTest, RandomTracesPreservePermutationUnderEveryLltKind)
{
    for (const LltKind kind :
         {LltKind::Ideal, LltKind::Embedded, LltKind::CoLocated}) {
        SCOPED_TRACE(lltKindName(kind));
        AuditSink::global().reset();
        PropertyFixture f(kind);
        Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(kind));

        const std::uint64_t total = f.ctrl->groups().totalLines();
        const std::uint64_t num_groups = f.ctrl->groups().numGroups();
        const std::uint32_t k = f.ctrl->groups().groupSize();
        Tick now = 0;
        for (int i = 0; i < 50000; ++i) {
            now += rng.next(100);
            // Half the traffic hammers random slots of 64 hot groups —
            // the same-group swap churn most likely to corrupt an
            // entry — and the rest is uniform.
            const LineAddr line =
                rng.chance(0.5)
                    ? rng.next(k) * num_groups + rng.next(64)
                    : rng.next(total);
            f.ctrl->access(now, line, rng.chance(0.25),
                           0x400 + rng.next(64) * 4,
                           static_cast<std::uint32_t>(rng.next(4)),
                           Fidelity::Detailed);
        }
        EXPECT_GT(f.ctrl->swaps().value(), 0u);

        // Exhaustive invariant check: every group is a permutation.
        EXPECT_EQ(f.ctrl->auditLlt(), 0u);
        LltAuditor auditor;
        EXPECT_EQ(auditor.auditAll(f.ctrl->llt()), 0u);
        for (std::uint64_t g = 0; g < f.ctrl->llt().numGroups(); ++g)
            ASSERT_TRUE(f.ctrl->llt().verifyGroup(g));

        // Zero audit failures end to end (incremental swap checks, DRAM
        // protocol, and the exhaustive sweep above all report here).
        EXPECT_EQ(AuditSink::global().failures(), 0u)
            << AuditSink::global().firstFailure();
    }
}

TEST_F(LltPropertyTest, CorruptionIsCaughtNotSilent)
{
    // Acceptance check: a deliberately corrupted LLT entry must be
    // caught by the auditor rather than passing silently.
    PropertyFixture f(LltKind::Ideal);
    const std::uint64_t groups = f.ctrl->groups().numGroups();
    for (std::uint64_t g = 0; g < 64; ++g)
        f.ctrl->access(1000 * g, groups + g, false, 0x400, 0,
                       Fidelity::Detailed);
    ASSERT_EQ(f.ctrl->auditLlt(), 0u);
    AuditSink::global().reset();

    // Simulate a metadata bug: one raw write that bypasses the swap
    // discipline.
    const_cast<LineLocationTable &>(f.ctrl->llt()).poke(17, 0, 3);

    EXPECT_EQ(f.ctrl->auditLlt(), 1u);
    EXPECT_GE(AuditSink::global().failures(), 1u);
    EXPECT_NE(AuditSink::global().firstFailure().find("group 17"),
              std::string::npos);
}

} // namespace
} // namespace cameo
