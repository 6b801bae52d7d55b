/**
 * @file
 * Allocation regression gate for the Queued completion path.
 *
 * In Queued timing every request's completion travels
 * MemoryOrganization::submit -> EventQueue -> MemClient::onMemComplete
 * (DESIGN.md §9). In steady state that path must not touch the heap:
 * the event heap holds POD entries, callbacks and in-flight requests
 * live in slabs recycled through free lists, and the completion
 * callback fits std::function's inline buffer. This binary replaces
 * the global operator new/delete with counting versions (a replacement
 * applies to the whole executable, hence a test binary of its own) and
 * counts allocations over many submit+complete cycles, after a warm-up
 * that lets every slab, heap and hash table reach its working size.
 *
 * DramModule's per-channel queues are sized up front (a fixed ring of
 * readWindow in-service reads, a write buffer reserved to the drain
 * high watermark), so steady state allocates nothing; the bound
 * tolerates a rare late growth of a container that warm-up left short
 * of its working size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "orgs/memory_organization.hh"
#include "sim/event_queue.hh"
#include "sim/mem_request.hh"
#include "util/rng.hh"

namespace
{

std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a whole number of alignments.
    return std::aligned_alloc(a, std::max(a, (size + a - 1) / a * a));
}

void *
orThrow(void *p)
{
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

// Every replaceable form, so that no allocation escapes the count and
// every block is freed by the allocator that made it.
void *
operator new(std::size_t size)
{
    return orThrow(countedAlloc(size));
}

void *
operator new[](std::size_t size)
{
    return orThrow(countedAlloc(size));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace cameo
{
namespace
{

/** Counts completions and nothing else (no allocation). */
class CountingClient : public MemClient
{
  public:
    void onMemComplete(const MemRequest &, Tick) override { ++completions; }

    std::uint64_t completions = 0;
};

constexpr std::uint64_t kWarmupCycles = 50'000;
constexpr std::uint64_t kMeasuredCycles = 200'000;

/** Reads kept outstanding at most, like a core's miss window. */
constexpr std::size_t kMissWindow = 32;

/**
 * Heap allocations per completion over kMeasuredCycles Queued
 * submit+complete cycles of a @p kind organization (default geometry)
 * with a bound event queue, after kWarmupCycles of warm-up.
 */
double
allocationsPerCompletion(OrgKind kind)
{
    OrgConfig oc;
    oc.timingMode = TimingMode::Queued;
    const std::uint64_t at_start = gAllocations.load();
    const auto org = makeOrganization(kind, oc);
    // The gate means nothing unless the counting replacement is live.
    EXPECT_GT(gAllocations.load(), at_start);
    EventQueue events;
    org->bindEventQueue(&events);
    CountingClient client;

    // Skewed toward a hot region so row hits, conflicts and (for CAMEO)
    // swaps all occur; occasionally roams the whole space.
    const std::uint64_t lines = org->visibleBytes() / kLineBytes;
    Rng rng(17);
    Tick now = 0;
    std::uint64_t allocs_before = 0;
    std::uint64_t completions_before = 0;
    for (std::uint64_t i = 0; i < kWarmupCycles + kMeasuredCycles; ++i) {
        if (i == kWarmupCycles) {
            allocs_before = gAllocations.load();
            // Requests still in flight were submitted in warm-up.
            completions_before = client.completions + org->inflightCount();
        }
        now += rng.next(40);
        events.runUntil(now);
        while (org->inflightCount() >= kMissWindow) {
            now = std::max(now, events.nextTick());
            events.runUntil(now);
        }
        const std::uint64_t span = rng.chance(0.25) ? lines : lines / 8 + 1;
        const auto core = static_cast<std::uint32_t>(rng.next(oc.numCores));
        org->submit(now, rng.next(span), /*is_write=*/false,
                    rng.next(1024) * 4, core, /*tag=*/1, &client);
    }
    events.runAll();
    const std::uint64_t allocs = gAllocations.load() - allocs_before;
    const std::uint64_t completions = client.completions - completions_before;
    org->bindEventQueue(nullptr);
    EXPECT_EQ(completions, kMeasuredCycles);
    return static_cast<double>(allocs) / static_cast<double>(completions);
}

TEST(AllocationGateTest, BaselineQueuedCompletionsDoNotAllocate)
{
    EXPECT_LT(allocationsPerCompletion(OrgKind::Baseline), 0.001);
}

TEST(AllocationGateTest, CameoQueuedCompletionsDoNotAllocate)
{
    EXPECT_LT(allocationsPerCompletion(OrgKind::Cameo), 0.001);
}

} // namespace
} // namespace cameo
