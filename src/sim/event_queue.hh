/**
 * @file
 * A minimal discrete-event queue.
 *
 * The main simulation loop (SimKernel) advances core agents by local
 * clock; the event queue carries what happens between their steps. Its
 * one production scheduler is the memory organization's Queued-timing
 * completion path (MemoryOrganization::submit, DESIGN.md §9), which
 * delivers every in-flight request at its completion tick; tests and
 * the benchmark's kernel replay schedule their own callbacks. Events
 * run in (tick, sequence) order, so same-tick events fire in the order
 * they were scheduled.
 *
 * The heap holds 24-byte POD entries; callbacks wait in a slab of
 * slots recycled through a free list. A completion callback that
 * captures no more than two words is stored inside its std::function,
 * so a steady-state schedule/run cycle allocates nothing.
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
    /** A pending event; its callback waits in slots_[slot]. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;

    /** Callback slab; a slot is free while its index is in freeSlots_. */
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> freeSlots_;

    std::uint64_t nextSeq_ = 0;
    Tick curTick_ = 0;
};

} // namespace cameo

#endif // CAMEO_SIM_EVENT_QUEUE_HH
