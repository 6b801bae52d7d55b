/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and the
 * agent-interleaving SimKernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/kernel.hh"

namespace cameo
{
namespace
{

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreak)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&](Tick) { order.push_back(1); });
    q.schedule(5, [&](Tick) { order.push_back(2); });
    q.schedule(5, [&](Tick) { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&](Tick) { ++count; });
    q.schedule(20, [&](Tick) { ++count; });
    q.schedule(30, [&](Tick) { ++count; });
    q.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), 30u);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&](Tick now) {
        ++fired;
        q.schedule(now + 5, [&](Tick) { ++fired; });
    });
    const Tick last = q.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(last, 15u);
}

TEST(EventQueueTest, CurTickTracksExecution)
{
    EventQueue q;
    q.schedule(42, [](Tick) {});
    EXPECT_EQ(q.curTick(), 0u);
    q.runOne();
    EXPECT_EQ(q.curTick(), 42u);
}

TEST(EventQueueTest, FifoTieBreakSurvivesInterleavedExecution)
{
    // Same-tick FIFO must hold even when execution interleaves with
    // scheduling: an event submitted at the current tick (mid-drain)
    // still runs after earlier same-tick submissions and before any
    // later tick. This is the ordering queued-timing completions rely
    // on for jobs-independent determinism.
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&](Tick) { order.push_back(1); });
    q.schedule(7, [&](Tick) { order.push_back(4); });
    q.runOne(); // executes tick 5; curTick() == 5
    q.schedule(5, [&](Tick) { order.push_back(2); });
    q.schedule(5, [&](Tick) { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, CallbackMaySchedulePastSlabCapacity)
{
    // The callback keeps reading its captures while its own schedules
    // grow (and so reallocate) the callback slab. runOne() must have
    // moved it out of its slot first; invoked in place, the capture
    // would be read from freed memory (ASan reports that).
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    constexpr int kSpawned = 1500;
    q.schedule(10, [&q, &fired](Tick now) {
        for (int i = 0; i < kSpawned; ++i) {
            const Tick when = now + static_cast<Tick>((i * 7) % 5);
            q.schedule(when, [&fired, i](Tick t) { fired.push_back({t, i}); });
        }
    });
    q.runAll();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kSpawned));
    // (tick, seq) order: by tick, then in scheduling order.
    std::vector<std::pair<Tick, int>> expected;
    for (int i = 0; i < kSpawned; ++i)
        expected.push_back({10 + static_cast<Tick>((i * 7) % 5), i});
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueTest, ReusedSlotsKeepFifoOrder)
{
    // Each runOne() frees a slot that the next schedule reuses, so slot
    // indices stop following scheduling order; same-tick events must
    // still fire first in, first out.
    EventQueue q;
    std::vector<int> order;
    int next = 0;
    const auto push = [&](Tick when) {
        const int id = next++;
        q.schedule(when, [&order, id](Tick) { order.push_back(id); });
    };
    push(6); // fires last, from the first slot
    push(5);
    push(5);
    for (int round = 0; round < 20; ++round) {
        q.runOne();
        push(5);
        push(5);
    }
    q.runAll();
    std::vector<int> expected;
    for (int id = 1; id < next; ++id)
        expected.push_back(id);
    expected.push_back(0);
    EXPECT_EQ(order, expected);
}

/** Agent that advances its clock by a fixed stride per step. */
class StrideAgent : public Agent
{
  public:
    StrideAgent(Tick start, Tick stride, int steps,
                std::vector<std::pair<int, Tick>> *log, int id)
        : clock_(start), stride_(stride), remaining_(steps), log_(log),
          id_(id)
    {}

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return remaining_ == 0; }

    void
    step() override
    {
        log_->emplace_back(id_, clock_);
        clock_ += stride_;
        --remaining_;
    }

  private:
    Tick clock_;
    Tick stride_;
    int remaining_;
    std::vector<std::pair<int, Tick>> *log_;
    int id_;
};

TEST(SimKernelTest, StepsAgentsInGlobalTimeOrder)
{
    std::vector<std::pair<int, Tick>> log;
    StrideAgent fast(0, 3, 10, &log, 0);
    StrideAgent slow(1, 7, 5, &log, 1);
    SimKernel kernel;
    kernel.addAgent(&fast);
    kernel.addAgent(&slow);
    kernel.run();

    ASSERT_EQ(log.size(), 15u);
    // Steps must be globally ordered by the clock at step time.
    for (std::size_t i = 1; i < log.size(); ++i)
        EXPECT_LE(log[i - 1].second, log[i].second);
}

TEST(SimKernelTest, ReturnsSlowestFinishTime)
{
    std::vector<std::pair<int, Tick>> log;
    StrideAgent a(0, 10, 3, &log, 0);  // finishes at clock 30
    StrideAgent b(0, 100, 2, &log, 1); // finishes at clock 200
    SimKernel kernel;
    kernel.addAgent(&a);
    kernel.addAgent(&b);
    EXPECT_EQ(kernel.run(), 200u);
}

TEST(SimKernelTest, MaxStepsGuardStopsRunaway)
{
    std::vector<std::pair<int, Tick>> log;
    StrideAgent a(0, 1, 1000000, &log, 0);
    SimKernel kernel;
    kernel.addAgent(&a);
    kernel.run(100);
    EXPECT_EQ(log.size(), 100u);
}

TEST(SimKernelTest, EmptyKernelReturnsZero)
{
    SimKernel kernel;
    EXPECT_EQ(kernel.run(), 0u);
}

/** Agent whose clock can jump (models a fault stall + yield). */
class JumpingAgent : public Agent
{
  public:
    explicit JumpingAgent(std::vector<Tick> *log) : log_(log) {}

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return steps_ >= 4; }

    void
    step() override
    {
        log_->push_back(clock_);
        ++steps_;
        clock_ += (steps_ == 2) ? 1000 : 10; // big jump mid-run
    }

  private:
    Tick clock_ = 0;
    int steps_ = 0;
    std::vector<Tick> *log_;
};

TEST(SimKernelTest, EventsInterleaveWithAgentStepsInTimeOrder)
{
    // Events in the kernel's queue fire when their tick is at or
    // before the next agent dispatch: the combined step/delivery
    // sequence is globally time-ordered, with ties resolved
    // event-first. Queued-timing completions depend on this.
    std::vector<std::pair<int, Tick>> log;
    StrideAgent agent(0, 10, 5, &log, 0); // steps at 0,10,20,30,40
    SimKernel kernel;
    kernel.addAgent(&agent);
    // Each event records (its tick, agent steps taken so far).
    std::vector<std::pair<Tick, std::size_t>> fired;
    for (const Tick t : {Tick{25}, Tick{5}, Tick{20}})
        kernel.events().schedule(t, [&](Tick when) {
            fired.emplace_back(when, log.size());
        });
    kernel.run();

    ASSERT_EQ(fired.size(), 3u);
    // Tick 5: after the agent's tick-0 step only.
    EXPECT_EQ(fired[0], (std::pair<Tick, std::size_t>{5, 1}));
    // Tick 20 ties with an agent step at 20: the event fires first,
    // so only the tick-0 and tick-10 steps precede it.
    EXPECT_EQ(fired[1], (std::pair<Tick, std::size_t>{20, 2}));
    // Tick 25: after the agent's tick-20 step.
    EXPECT_EQ(fired[2], (std::pair<Tick, std::size_t>{25, 3}));
    ASSERT_EQ(log.size(), 5u);
}

/** Agent that issues one "miss", parks, and resumes on completion. */
class ParkingAgent : public Agent
{
  public:
    explicit ParkingAgent(EventQueue *events) : events_(events) {}

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return steps_ >= 2; }
    bool blocked() const override { return parked_; }

    void
    step() override
    {
        ++steps_;
        if (steps_ == 1) {
            // Miss: completion arrives at tick 500; park until then.
            parked_ = true;
            events_->schedule(500, [this](Tick when) {
                parked_ = false;
                clock_ = when;
            });
        }
    }

    int steps() const { return steps_; }

  private:
    EventQueue *events_;
    Tick clock_ = 0;
    int steps_ = 0;
    bool parked_ = false;
};

TEST(SimKernelTest, ParkedAgentResumesOnCompletionEvent)
{
    SimKernel kernel;
    ParkingAgent agent(&kernel.events());
    kernel.addAgent(&agent);
    const Tick finish = kernel.run();
    EXPECT_EQ(agent.steps(), 2);
    EXPECT_TRUE(agent.done());
    EXPECT_EQ(finish, 500u);
}

TEST(SimKernelTest, LeftoverEventsDrainBeforeReturn)
{
    // Agents can finish with completions still in flight; run() must
    // deliver them before returning so pipeline bookkeeping settles.
    std::vector<std::pair<int, Tick>> log;
    StrideAgent agent(0, 10, 2, &log, 0); // finishes at tick 20
    SimKernel kernel;
    kernel.addAgent(&agent);
    bool delivered = false;
    kernel.events().schedule(1000, [&](Tick) { delivered = true; });
    kernel.run();
    EXPECT_TRUE(delivered);
}

TEST(SimKernelTest, OtherAgentsRunDuringJumps)
{
    std::vector<Tick> jump_log;
    std::vector<std::pair<int, Tick>> stride_log;
    JumpingAgent jumper(&jump_log);
    StrideAgent strider(0, 50, 30, &stride_log, 0);
    SimKernel kernel;
    kernel.addAgent(&jumper);
    kernel.addAgent(&strider);
    kernel.run();
    // The strider must have stepped inside the jumper's 1000-cycle gap.
    bool inside = false;
    for (const auto &[id, t] : stride_log)
        inside |= (t > 20 && t < 1000);
    EXPECT_TRUE(inside);
}

} // namespace
} // namespace cameo
