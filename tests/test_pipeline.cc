/**
 * @file
 * Transaction-pipeline tests (DESIGN.md §9): submit()/onMemComplete
 * plumbing, the QueueInvariantAuditor, and the Queued timing mode.
 *
 *  - Blocking equivalence: for every organization kind, driving one
 *    instance through the legacy access() calls and a twin instance
 *    through submit() yields identical completion ticks and identical
 *    synchronous callback deliveries — the pipeline wrapper adds no
 *    timing on the blocking path (the golden suite then pins the
 *    full-system numbers bit-for-bit).
 *  - QueueInvariantAuditor: lost, duplicated, time-regressing, and
 *    over-occupancy transactions are each reported.
 *  - Queued property test: a randomized request stream against every
 *    organization, completions delivered through a real EventQueue,
 *    must drain completely — no lost or duplicated completions, every
 *    delivery at or after its issue tick, delivery ticks monotone.
 *  - In-flight snapshots: requests that retire out of order leave holes
 *    in the in-flight slab, yet a snapshot lists them in submission
 *    order and a restored organization delivers exactly what the
 *    uninterrupted one does.
 *  - Queued System runs: every organization finishes its trace, the
 *    executed trace is identical to Blocking, and a sweep of Queued
 *    systems is bit-identical across worker counts.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "check/queue_auditor.hh"
#include "dram/dram_module.hh"
#include "exp/sweep.hh"
#include "orgs/memory_organization.hh"
#include "sim/event_queue.hh"
#include "sim/mem_request.hh"
#include "snapshot/snapshot.hh"
#include "snapshot_common.hh"
#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

const std::vector<OrgKind> kAllOrgKinds{
    OrgKind::Baseline,   OrgKind::AlloyCache, OrgKind::TlmStatic,
    OrgKind::TlmDynamic, OrgKind::TlmFreq,    OrgKind::TlmOracle,
    OrgKind::DoubleUse,  OrgKind::Cameo,      OrgKind::CameoFreq,
    OrgKind::Banshee,
};

/** Small org config (capacity ratio as in the paper, 1:3). */
OrgConfig
smallOrgConfig(TimingMode mode)
{
    OrgConfig c;
    c.stackedBytes = 1 << 20;
    c.offchipBytes = 3 << 20;
    c.numCores = 2;
    c.seed = 42;
    c.freq.epochAccesses = 512;
    c.timingMode = mode;
    return c;
}

/**
 * The organization built both DRAM modules (the stacked one is absent
 * only for Baseline) at @p oc's timing mode and queue geometry.
 */
void
expectModulesFollowConfig(const MemoryOrganization &org, OrgKind kind,
                          const OrgConfig &oc)
{
    EXPECT_EQ(org.stackedModule() == nullptr, kind == OrgKind::Baseline)
        << orgKindName(kind);
    for (const DramModule *module :
         {org.stackedModule(), &org.offchipModule()}) {
        if (module == nullptr)
            continue;
        EXPECT_EQ(module->timingMode(), oc.timingMode)
            << orgKindName(kind) << " " << module->name();
        EXPECT_EQ(module->queueConfig(), oc.dramQueues)
            << orgKindName(kind) << " " << module->name();
    }
}

/** Records every completion it receives. */
class RecordingClient : public MemClient
{
  public:
    struct Delivery
    {
        MemRequest req;
        Tick done;
    };

    void onMemComplete(const MemRequest &req, Tick done) override
    {
        deliveries.push_back({req, done});
    }

    std::vector<Delivery> deliveries;
};

/** One pseudo-random request against @p visible_lines. */
struct TestReq
{
    Tick now;
    LineAddr line;
    bool isWrite;
    InstAddr pc;
    std::uint32_t core;
};

std::vector<TestReq>
makeRequestStream(std::uint64_t visible_lines, std::uint32_t cores,
                  std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TestReq> reqs;
    reqs.reserve(count);
    Tick now = 0;
    for (std::size_t i = 0; i < count; ++i) {
        now += rng.next(40);
        TestReq r;
        r.now = now;
        // Skew toward a hot region so row hits, conflicts, swaps, and
        // cache hits all occur; occasionally roam the whole space.
        const std::uint64_t span =
            rng.chance(0.25) ? visible_lines : visible_lines / 8 + 1;
        r.line = rng.next(span);
        r.isWrite = rng.chance(0.25);
        r.pc = rng.next(1024) * 4;
        r.core = static_cast<std::uint32_t>(rng.next(cores));
        reqs.push_back(r);
    }
    return reqs;
}

TEST(PipelineBlockingTest, SubmitMatchesLegacyAccessForEveryOrg)
{
    for (const OrgKind kind : kAllOrgKinds) {
        const OrgConfig oc = smallOrgConfig(TimingMode::Blocking);
        const auto legacy = makeOrganization(kind, oc);
        const auto piped = makeOrganization(kind, oc);
        ASSERT_NE(legacy, nullptr);
        ASSERT_NE(piped, nullptr);
        if (kind == OrgKind::TlmOracle) {
            legacy->setPageHeat({});
            piped->setPageHeat({});
        }
        EXPECT_EQ(piped->timingMode(), TimingMode::Blocking);
        expectModulesFollowConfig(*piped, kind, oc);

        const std::uint64_t lines = legacy->visibleBytes() / kLineBytes;
        const auto reqs =
            makeRequestStream(lines, oc.numCores, 4000,
                              7 + static_cast<std::uint64_t>(kind));
        RecordingClient client;
        std::size_t expected_deliveries = 0;
        for (const TestReq &r : reqs) {
            const Tick t_legacy =
                legacy->access(r.now, r.line, r.isWrite, r.pc, r.core);
            const Tick t_piped =
                piped->submit(r.now, r.line, r.isWrite, r.pc, r.core,
                              r.isWrite ? kNoTag : 1,
                              r.isWrite ? nullptr : &client);
            ASSERT_EQ(t_legacy, t_piped)
                << orgKindName(kind) << " diverged at now=" << r.now;
            if (!r.isWrite) {
                // Blocking submit delivers synchronously, inside the
                // call, with the same completion tick it returns.
                ++expected_deliveries;
                ASSERT_EQ(client.deliveries.size(), expected_deliveries);
                EXPECT_EQ(client.deliveries.back().done, t_piped);
                EXPECT_EQ(client.deliveries.back().req.line, r.line);
                EXPECT_EQ(client.deliveries.back().req.issueTick, r.now);
            }
        }
    }
}

/** Auditor tests report through AuditSink; keep it non-aborting. */
class QueueAuditorTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        AuditSink::global().reset();
        AuditSink::global().setAbortOnFailure(false);
    }

    void TearDown() override { AuditSink::global().reset(); }
};

TEST_F(QueueAuditorTest, CleanRunHasNoViolations)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(1, 10);
    audit.onSubmit(2, 12);
    audit.onComplete(1, 20);
    audit.onComplete(2, 25);
    audit.checkDrained();
    EXPECT_EQ(audit.violations(), 0u);
    EXPECT_EQ(audit.submits(), 2u);
    EXPECT_EQ(audit.completions(), 2u);
    EXPECT_EQ(audit.outstanding(), 0u);
}

TEST_F(QueueAuditorTest, DetectsDuplicateSubmit)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(7, 10);
    audit.onSubmit(7, 11);
    EXPECT_EQ(audit.violations(), 1u);
}

TEST_F(QueueAuditorTest, DetectsUnknownAndDoubleCompletion)
{
    QueueInvariantAuditor audit;
    audit.onComplete(9, 5);
    EXPECT_EQ(audit.violations(), 1u);
    audit.onSubmit(1, 10);
    audit.onComplete(1, 15);
    audit.onComplete(1, 16); // double completion: id no longer known
    EXPECT_EQ(audit.violations(), 2u);
}

TEST_F(QueueAuditorTest, DetectsCompletionBeforeSubmitTime)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(1, 100);
    audit.onComplete(1, 99);
    EXPECT_EQ(audit.violations(), 1u);
}

TEST_F(QueueAuditorTest, DetectsLostRequestAtDrain)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(1, 10);
    audit.onSubmit(2, 11);
    audit.onComplete(1, 20);
    audit.checkDrained();
    EXPECT_EQ(audit.violations(), 1u);
    EXPECT_EQ(audit.outstanding(), 1u);
}

TEST_F(QueueAuditorTest, MonotonicDeliveryAppliesOnlyToOrderedPath)
{
    QueueInvariantAuditor audit;
    audit.setMonotonicDelivery(true);
    audit.onSubmit(1, 10);
    audit.onSubmit(2, 10);
    audit.onSubmit(3, 10);
    audit.onComplete(1, 50);
    audit.onComplete(2, 40, /*ordered=*/false); // sync write: exempt
    EXPECT_EQ(audit.violations(), 0u);
    audit.onComplete(3, 45); // ordered regression: reported
    EXPECT_EQ(audit.violations(), 1u);
}

TEST_F(QueueAuditorTest, EnforcesOccupancyBound)
{
    QueueInvariantAuditor audit;
    audit.setOccupancyBound(2);
    audit.onSubmit(1, 1);
    audit.onSubmit(2, 2);
    EXPECT_EQ(audit.violations(), 0u);
    audit.onSubmit(3, 3);
    EXPECT_EQ(audit.violations(), 1u);
}

TEST(PipelineQueuedTest, RandomStreamDrainsCleanlyForEveryOrg)
{
    for (const OrgKind kind : kAllOrgKinds) {
        OrgConfig oc = smallOrgConfig(TimingMode::Queued);
        // Not the default geometry, so the module check sees it arrive.
        oc.dramQueues.readWindow = 8;
        const auto org = makeOrganization(kind, oc);
        ASSERT_NE(org, nullptr);
        if (kind == OrgKind::TlmOracle)
            org->setPageHeat({});
        EXPECT_EQ(org->timingMode(), TimingMode::Queued);
        expectModulesFollowConfig(*org, kind, oc);

        EventQueue events;
        org->bindEventQueue(&events);
        RecordingClient client;

        const std::uint64_t lines = org->visibleBytes() / kLineBytes;
        const auto reqs =
            makeRequestStream(lines, oc.numCores, 4000,
                              31 + static_cast<std::uint64_t>(kind));
        std::size_t expected = 0;
        for (const TestReq &r : reqs) {
            // Deliver completions due before this request's issue time,
            // as the kernel would between agent steps.
            events.runUntil(r.now);
            const Tick done =
                org->submit(r.now, r.line, r.isWrite, r.pc, r.core,
                            r.isWrite ? kNoTag : 1,
                            r.isWrite ? nullptr : &client);
            EXPECT_GE(done, r.now);
            if (!r.isWrite)
                ++expected;
        }
        events.runAll();
        // Under CAMEO_AUDIT the organization's internal auditor now
        // checks that every submitted transaction completed.
        org->bindEventQueue(nullptr);

        // No lost or duplicated completions.
        ASSERT_EQ(client.deliveries.size(), expected)
            << orgKindName(kind) << ": lost or duplicated completions";
        std::set<std::uint64_t> ids;
        for (const auto &d : client.deliveries) {
            EXPECT_TRUE(ids.insert(d.req.id).second)
                << orgKindName(kind) << " delivered request " << d.req.id
                << " twice";
            EXPECT_GE(d.done, d.req.issueTick);
        }
        // The event queue fires in tick order, so deliveries are
        // monotone in completion time.
        for (std::size_t i = 1; i < client.deliveries.size(); ++i) {
            EXPECT_GE(client.deliveries[i].done,
                      client.deliveries[i - 1].done)
                << orgKindName(kind) << " delivery order regressed";
        }
    }
}

TEST(PipelineQueuedTest, InflightSnapshotKeepsSubmissionOrder)
{
    // Completions retire out of submission order, so by the snapshot
    // the in-flight slab has holes and reused slots. The snapshot must
    // still list requests in submission (id) order, and a fresh org
    // restored from it must deliver exactly what the uninterrupted org
    // delivers, ties included. A snapshot whose ids do not ascend is
    // refused.
    const OrgConfig oc = smallOrgConfig(TimingMode::Queued);
    for (const OrgKind kind : {OrgKind::Baseline, OrgKind::Cameo}) {
        const auto org = makeOrganization(kind, oc);
        EventQueue events;
        org->bindEventQueue(&events);
        RecordingClient client;
        const std::uint64_t lines = org->visibleBytes() / kLineBytes;
        const auto reqs = makeRequestStream(lines, oc.numCores, 3000, 77);
        const std::size_t pause = reqs.size() / 2;
        const auto submit = [&](MemoryOrganization &o, EventQueue &q,
                                RecordingClient &c, std::size_t from,
                                std::size_t to) {
            for (std::size_t i = from; i < to; ++i) {
                const TestReq &r = reqs[i];
                q.runUntil(r.now);
                o.submit(r.now, r.line, /*is_write=*/false, r.pc, r.core,
                         /*tag=*/1, &c);
            }
        };
        // The first half, leaving its last arrivals in flight.
        submit(*org, events, client, 0, pause);
        std::size_t out_of_order = 0;
        for (std::size_t i = 1; i < client.deliveries.size(); ++i) {
            if (client.deliveries[i].req.id <
                client.deliveries[i - 1].req.id)
                ++out_of_order;
        }
        EXPECT_GT(out_of_order, 0u) << orgKindName(kind);
        ASSERT_GE(org->inflightCount(), 2u) << orgKindName(kind);

        const std::vector<std::uint8_t> bytes = snaptest::saveBytes(*org);
        SnapshotReader r;
        ASSERT_TRUE(r.open(bytes));
        ASSERT_TRUE(r.enterSection("component"));
        r.u64(); // lastRequestId
        const std::uint64_t saved = r.u64();
        EXPECT_EQ(saved, org->inflightCount());
        std::uint64_t prev_id = 0;
        for (std::uint64_t i = 0; i < saved; ++i) {
            const std::uint64_t id = r.u64();
            EXPECT_GT(id, prev_id) << orgKindName(kind);
            prev_id = id;
            // tag, line, isWrite, pc, core, issueTick, done
            r.u64();
            r.u64();
            r.b();
            r.u64();
            r.u32();
            r.u64();
            r.u64();
        }
        ASSERT_TRUE(r.ok()) << r.error();

        // Uninterrupted: drain, then run the second half.
        client.deliveries.clear();
        submit(*org, events, client, pause, reqs.size());
        events.runAll();

        const auto fresh = makeOrganization(kind, oc);
        ASSERT_TRUE(snaptest::restoreFromBytes(*fresh, bytes));
        EventQueue fresh_events;
        fresh->bindEventQueue(&fresh_events);
        RecordingClient fresh_client;
        fresh->rescheduleInflight(
            [&](std::uint32_t) -> MemClient * { return &fresh_client; });
        submit(*fresh, fresh_events, fresh_client, pause, reqs.size());
        fresh_events.runAll();

        ASSERT_EQ(fresh_client.deliveries.size(), client.deliveries.size())
            << orgKindName(kind);
        for (std::size_t i = 0; i < client.deliveries.size(); ++i) {
            EXPECT_EQ(fresh_client.deliveries[i].req.id,
                      client.deliveries[i].req.id)
                << orgKindName(kind) << " delivery " << i;
            EXPECT_EQ(fresh_client.deliveries[i].done,
                      client.deliveries[i].done)
                << orgKindName(kind) << " delivery " << i;
        }
        org->bindEventQueue(nullptr);
        fresh->bindEventQueue(nullptr);

        // In-flight ids that do not ascend could not come from a live
        // pipeline: the restore must refuse them.
        SnapshotWriter bad;
        bad.beginSection("component");
        bad.u64(10); // lastRequestId
        bad.u64(2);  // in flight
        for (const std::uint64_t id : {7, 5}) {
            bad.u64(id);
            bad.u64(0);   // tag
            bad.u64(0);   // line
            bad.b(false); // isWrite
            bad.u64(0);   // pc
            bad.u32(0);   // core
            bad.u64(0);   // issueTick
            bad.u64(0);   // done
        }
        bad.endSection();
        std::string error;
        EXPECT_FALSE(snaptest::restoreFromBytes(
            *makeOrganization(kind, oc), bad.finish(), &error));
        EXPECT_EQ(error.rfind("org: ", 0), 0u) << error;
    }
}

TEST(PipelineQueuedTest, QueuedStatsRegisterOnlyInQueuedMode)
{
    for (const TimingMode mode :
         {TimingMode::Blocking, TimingMode::Queued}) {
        const auto org =
            makeOrganization(OrgKind::Baseline, smallOrgConfig(mode));
        StatRegistry registry;
        org->registerStats(registry);
        const bool queued = mode == TimingMode::Queued;
        EXPECT_EQ(registry.findCounter("dram.offchip.queueFullStalls") !=
                      nullptr,
                  queued)
            << timingModeName(mode);
        EXPECT_EQ(registry.findDistribution(
                      "dram.offchip.readQueueDepth") != nullptr,
                  queued)
            << timingModeName(mode);
    }
}

TEST(PipelineQueuedTest, EveryOrgFinishesAQueuedSystemRun)
{
    const WorkloadProfile *wl = findWorkload("mcf");
    ASSERT_NE(wl, nullptr);
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 5'000;
    config.timingMode = TimingMode::Queued;
    for (const OrgKind kind : kAllOrgKinds) {
        const RunResult r = runWorkload(config, kind, *wl);
        EXPECT_FALSE(r.truncated) << orgKindName(kind);
        EXPECT_EQ(r.accesses,
                  std::uint64_t{config.numCores} * config.accessesPerCore)
            << orgKindName(kind);
        EXPECT_GT(r.execTime, 0u) << orgKindName(kind);
    }
}

TEST(PipelineQueuedTest, QueuedTimingChangesWhenNotWhatExecutes)
{
    // Same system, both modes: queued contention may move execution
    // time but must not change what was executed — access and
    // instruction totals are trace properties, not timing ones.
    const WorkloadProfile *wl = findWorkload("milc");
    ASSERT_NE(wl, nullptr);
    SystemConfig blocking = tinyConfig();
    blocking.accessesPerCore = 5'000;
    SystemConfig queued = blocking;
    queued.timingMode = TimingMode::Queued;
    const RunResult rb = runWorkload(blocking, OrgKind::Cameo, *wl);
    const RunResult rq = runWorkload(queued, OrgKind::Cameo, *wl);
    EXPECT_EQ(rb.accesses, rq.accesses);
    EXPECT_EQ(rb.instructions, rq.instructions);
    EXPECT_GT(rq.execTime, 0u);
}

TEST(PipelineQueuedTest, SweepIsBitIdenticalAcrossWorkerCounts)
{
    const WorkloadProfile *wl = findWorkload("mcf");
    ASSERT_NE(wl, nullptr);
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 4'000;
    config.timingMode = TimingMode::Queued;

    const auto run_matrix = [&](unsigned jobs) {
        std::vector<SweepJob> sweep_jobs;
        std::vector<std::ostringstream> dumps(kAllOrgKinds.size());
        for (std::size_t i = 0; i < kAllOrgKinds.size(); ++i) {
            const OrgKind kind = kAllOrgKinds[i];
            sweep_jobs.push_back(
                {std::string(orgKindName(kind)), [&, i, kind] {
                     System system(config, kind, *wl);
                     const RunResult r = system.run();
                     system.stats().dumpJson(dumps[i]);
                     return r;
                 }});
        }
        SweepOptions options;
        options.jobs = jobs;
        SweepRunner(options).run(std::move(sweep_jobs));
        std::string all;
        for (const auto &d : dumps)
            all += d.str();
        return all;
    };

    const std::string serial = run_matrix(1);
    const std::string parallel = run_matrix(8);
    EXPECT_EQ(serial, parallel)
        << "queued-mode stats depend on sweep worker count";
}

} // namespace
} // namespace cameo
