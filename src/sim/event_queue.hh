/**
 * @file
 * A minimal discrete-event queue.
 *
 * The main simulation loop (SimKernel) advances core agents by local
 * clock, but a few components want to schedule deferred callbacks (e.g.
 * epoch-based page migration in TLM-Freq, delayed stat snapshots in
 * tests). EventQueue provides that: (tick, sequence)-ordered callbacks
 * with deterministic FIFO tie-breaking.
 */

#ifndef CAMEO_SIM_EVENT_QUEUE_HH
#define CAMEO_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/types.hh"

namespace cameo
{

/** Ordered callback queue; ties broken by insertion order. */
class EventQueue
{
  public:
    using Callback = std::function<void(Tick)>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at @p when. Scheduling in the past (before
     * the last executed tick) is a caller bug and asserts.
     */
    void schedule(Tick when, Callback cb);

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Tick of the earliest pending event. Precondition: !empty(). */
    Tick nextTick() const;

    /** Tick of the most recently executed event (0 before any). */
    Tick curTick() const { return curTick_; }

    /**
     * Rewind curTick() to 0, for a timeline restarting at tick 0 (the
     * warmup->measured switch). Precondition: empty().
     */
    void resetClock();

    /** Execute exactly the earliest event. Precondition: !empty(). */
    void runOne();

    /** Execute all events with tick <= @p limit. */
    void runUntil(Tick limit);

    /** Execute everything. Returns the tick of the last event run. */
    Tick runAll();

    std::size_t size() const { return heap_.size(); }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::uint64_t nextSeq_ = 0;
    Tick curTick_ = 0;
};

} // namespace cameo

#endif // CAMEO_SIM_EVENT_QUEUE_HH
