/**
 * @file
 * Nth-touch migrate placement implementation.
 */

#include "orgs/policy/nth_touch_placement.hh"

#include <algorithm>
#include <utility>

namespace cameo
{

NthTouchMigratePlacement::NthTouchMigratePlacement(
    std::uint64_t stacked_pages, std::uint64_t total_pages,
    const MigratePolicyConfig &config, std::uint64_t seed)
    : stackedLastUse_(stacked_pages, 0), touchCount_(total_pages, 0),
      stackedPages_(stacked_pages), victimProbes_(config.victimProbes),
      migrateThreshold_(std::max(1u, config.migrateThreshold)),
      rng_(seed ^ 0xD15C)
{
}

std::uint64_t
NthTouchMigratePlacement::selectVictim()
{
    // Oldest of victimProbes_ random stacked device pages (approximate
    // LRU, standing in for the OS's page-age bookkeeping).
    std::uint64_t victim = rng_.next(stackedPages_);
    for (std::uint32_t p = 1; p < victimProbes_; ++p) {
        const std::uint64_t cand = rng_.next(stackedPages_);
        if (stackedLastUse_[cand] < stackedLastUse_[victim])
            victim = cand;
    }
    return victim;
}

void
NthTouchMigratePlacement::onAccess(PlacementContext &ctx, Tick when,
                                   PageAddr phys_page,
                                   std::uint64_t device_page, bool is_write)
{
    (void)is_write;
    const std::uint64_t stamp = ++accessSeq_;
    if (device_page < stackedPages_) {
        stackedLastUse_[device_page] = stamp;
        touchCount_[phys_page] = 0;
        return;
    }
    // Off-chip access: migrate the page into stacked memory once it
    // has shown it is live (migrateThreshold_ touches), swapping with
    // a not-recently-used victim.
    if (++touchCount_[phys_page] < migrateThreshold_)
        return;
    touchCount_[phys_page] = 0;
    const std::uint64_t victim_dev = selectVictim();
    ctx.billPageSwap(when, device_page, victim_dev);
    ctx.swapMapping(phys_page, ctx.physPageAt(victim_dev));
    stackedLastUse_[victim_dev] = stamp;
}

void
NthTouchMigratePlacement::save(SnapshotWriter &w) const
{
    w.vecU64(stackedLastUse_);
    w.vecU8(touchCount_);
    for (const std::uint64_t s : rng_.state())
        w.u64(s);
    w.u64(accessSeq_);
}

void
NthTouchMigratePlacement::restore(SnapshotReader &r)
{
    std::vector<Tick> lastUse;
    std::vector<std::uint8_t> touches;
    r.vecU64(lastUse);
    r.vecU8(touches);
    if (!r.ok())
        return;
    if (lastUse.size() != stackedLastUse_.size() ||
        touches.size() != touchCount_.size()) {
        r.fail("tlm-dynamic: LRU/touch table size mismatch");
        return;
    }
    stackedLastUse_ = std::move(lastUse);
    touchCount_ = std::move(touches);
    Rng::State rngState;
    for (std::uint64_t &s : rngState)
        s = r.u64();
    rng_.setState(rngState);
    accessSeq_ = r.u64();
}

} // namespace cameo
