#include "sim/event_queue.hh"

#include <cassert>
#include <utility>

namespace cameo
{

void
EventQueue::schedule(Tick when, Callback cb)
{
    assert(when >= curTick_ && "scheduling into the past");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(cb));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(cb);
    }
    heap_.push(Entry{when, nextSeq_++, slot});
}

Tick
EventQueue::nextTick() const
{
    assert(!heap_.empty());
    return heap_.top().when;
}

void
EventQueue::runOne()
{
    assert(!heap_.empty());
    const Entry e = heap_.top();
    heap_.pop();
    curTick_ = e.when;
    // Free the slot before the call: the callback may schedule, which
    // can reuse this slot or grow (and so move) the slab.
    Callback cb = std::move(slots_[e.slot]);
    freeSlots_.push_back(e.slot);
    cb(e.when);
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.top().when <= limit)
        runOne();
}

void
EventQueue::resetClock()
{
    assert(heap_.empty() && "resetting the clock under pending events");
    curTick_ = 0;
}

Tick
EventQueue::runAll()
{
    while (!heap_.empty())
        runOne();
    return curTick_;
}

} // namespace cameo
