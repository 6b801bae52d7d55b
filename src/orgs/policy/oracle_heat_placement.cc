/**
 * @file
 * Oracle-heat placement implementation.
 */

#include "orgs/policy/oracle_heat_placement.hh"

#include <cassert>

#include "snapshot/flat_map_io.hh"

namespace cameo
{

namespace
{

/**
 * Expose a priority_queue's protected underlying container. The heap
 * must round-trip with its exact array layout — reconstructing via the
 * (comparator, container) constructor re-heapifies, which can reorder
 * tied entries and change future pop order — so save reads and restore
 * writes the container directly.
 */
template <typename T, typename C, typename Cmp>
const C &
heapContainer(const std::priority_queue<T, C, Cmp> &q)
{
    struct Opener : std::priority_queue<T, C, Cmp>
    {
        static const C &get(const std::priority_queue<T, C, Cmp> &pq)
        {
            return pq.*&Opener::c;
        }
    };
    return Opener::get(q);
}

template <typename T, typename C, typename Cmp>
C &
heapContainer(std::priority_queue<T, C, Cmp> &q)
{
    struct Opener : std::priority_queue<T, C, Cmp>
    {
        static C &get(std::priority_queue<T, C, Cmp> &pq)
        {
            return pq.*&Opener::c;
        }
    };
    return Opener::get(q);
}

} // namespace

OracleHeatPlacement::OracleHeatPlacement(std::uint64_t stacked_pages,
                                         std::uint64_t total_pages)
    : stackedPages_(stacked_pages), totalPages_(total_pages),
      physHeat_(total_pages, 0)
{
    // Initially every identity-mapped stacked device page holds a
    // zero-heat physical page.
    for (std::uint64_t p = 0; p < stackedPages_; ++p)
        coldest_.emplace(0, p);
}

void
OracleHeatPlacement::onAccess(PlacementContext &ctx, Tick when,
                              PageAddr phys_page, std::uint64_t device_page,
                              bool is_write)
{
    (void)ctx;
    (void)when;
    (void)phys_page;
    (void)device_page;
    (void)is_write;
}

bool
OracleHeatPlacement::setPageHeat(PageHeatMap heat)
{
    heat_ = std::move(heat);
    return true;
}

void
OracleHeatPlacement::onPageMapped(PlacementContext &ctx, std::uint32_t frame,
                                  std::uint32_t core, PageAddr vpage)
{
    const PageAddr phys_page = frame;
    assert(phys_page < totalPages_);
    const auto it = heat_.find(pageHeatKey(core, vpage));
    const std::uint64_t h = it == heat_.end() ? 0 : it->second;
    physHeat_[phys_page] = h;

    if (ctx.devicePageOf(phys_page) < stackedPages_) {
        // Already placed well; record its (new) heat.
        coldest_.emplace(h, phys_page);
        return;
    }

    // Pop stale entries (heat changed since insertion or the page
    // moved out of stacked memory).
    while (!coldest_.empty()) {
        const auto [heat, page] = coldest_.top();
        if (heat == physHeat_[page] &&
            ctx.devicePageOf(page) < stackedPages_)
            break;
        coldest_.pop();
    }
    if (coldest_.empty())
        return;

    const auto [cold_heat, cold_page] = coldest_.top();
    if (h > cold_heat) {
        // Oracular placement: exchange mappings at no cost.
        coldest_.pop();
        ctx.swapMapping(phys_page, cold_page);
        coldest_.emplace(h, phys_page);
        // cold_page is now off-chip; its stale entries are skipped.
    }
}

void
OracleHeatPlacement::save(SnapshotWriter &w) const
{
    w.vecU64(physHeat_);
    const auto &heap = heapContainer(coldest_);
    w.u64(heap.size());
    for (const auto &[heat, page] : heap) {
        w.u64(heat);
        w.u64(page);
    }
    saveFlatMap(w, heat_);
}

void
OracleHeatPlacement::restore(SnapshotReader &r)
{
    std::vector<std::uint64_t> heat;
    r.vecU64(heat);
    if (!r.ok())
        return;
    if (heat.size() != physHeat_.size()) {
        r.fail("tlm-oracle: heat table size mismatch");
        return;
    }
    physHeat_ = std::move(heat);
    const std::uint64_t heapSize = r.u64();
    // Lazy invalidation bounds the heap by total insertions, not live
    // pages; cap it at something a sane run cannot exceed so corrupted
    // sizes fail instead of allocating.
    if (r.ok() && heapSize > (std::uint64_t{1} << 32)) {
        r.fail("tlm-oracle: implausible coldest-heap size");
        return;
    }
    std::vector<HeapEntry> heap;
    heap.reserve(heapSize);
    for (std::uint64_t i = 0; i < heapSize && r.ok(); ++i) {
        const std::uint64_t h = r.u64();
        const PageAddr page = r.u64();
        heap.emplace_back(h, page);
    }
    if (!r.ok())
        return;
    heapContainer(coldest_) = std::move(heap);
    restoreFlatMap(r, heat_, "oracle heat map");
}

} // namespace cameo
