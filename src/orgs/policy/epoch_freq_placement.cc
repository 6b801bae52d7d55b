/**
 * @file
 * Epoch-frequency placement implementation.
 */

#include "orgs/policy/epoch_freq_placement.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cameo
{

EpochFrequencyPlacement::EpochFrequencyPlacement(std::uint64_t stacked_pages,
                                                std::uint64_t total_pages,
                                                std::uint64_t epoch_accesses)
    : stackedPages_(stacked_pages), totalPages_(total_pages),
      epochLength_(epoch_accesses), pageCount_(total_pages, 0),
      epochs_("tlmfreq.epochs", "migration epochs completed")
{
    assert(epochLength_ != 0);
}

void
EpochFrequencyPlacement::onAccess(PlacementContext &ctx, Tick when,
                                  PageAddr phys_page,
                                  std::uint64_t device_page, bool is_write)
{
    (void)device_page;
    (void)is_write;
    ++pageCount_[phys_page];
    if (++accessesThisEpoch_ >= epochLength_) {
        accessesThisEpoch_ = 0;
        rebalance(ctx, when);
    }
}

void
EpochFrequencyPlacement::rebalance(PlacementContext &ctx, Tick when)
{
    epochs_.inc();

    // Rank OS-physical pages by access count; the top stackedPages_
    // should occupy stacked memory.
    std::vector<std::uint32_t> pages(totalPages_);
    for (std::uint32_t p = 0; p < totalPages_; ++p)
        pages[p] = p;
    const auto hotter = [&](std::uint32_t a, std::uint32_t b) {
        return pageCount_[a] > pageCount_[b];
    };
    const std::size_t k =
        std::min<std::size_t>(stackedPages_, pages.size());
    std::nth_element(pages.begin(), pages.begin() + k - 1, pages.end(),
                     hotter);

    // Desired-in-stacked marker for the top-k pages with nonzero heat
    // (cold pages are not worth migrating).
    std::vector<bool> wantStacked(totalPages_, false);
    for (std::size_t i = 0; i < k; ++i) {
        if (pageCount_[pages[i]] > 0)
            wantStacked[pages[i]] = true;
    }

    // Collect misplaced pages on both sides and pair them up.
    std::vector<PageAddr> moveIn;  // hot pages currently off-chip
    std::vector<PageAddr> moveOut; // cold pages currently stacked
    for (std::uint32_t p = 0; p < totalPages_; ++p) {
        const bool stacked_now = ctx.devicePageOf(p) < stackedPages_;
        if (wantStacked[p] && !stacked_now)
            moveIn.push_back(p);
        else if (!wantStacked[p] && stacked_now)
            moveOut.push_back(p);
    }
    const std::size_t swaps = std::min(moveIn.size(), moveOut.size());
    for (std::size_t i = 0; i < swaps; ++i) {
        const std::uint64_t off_dev = ctx.devicePageOf(moveIn[i]);
        const std::uint64_t stk_dev = ctx.devicePageOf(moveOut[i]);
        ctx.billPageSwap(when, off_dev, stk_dev);
        ctx.swapMapping(moveIn[i], moveOut[i]);
    }

    // Decay history so placement adapts to phase changes.
    for (auto &c : pageCount_)
        c >>= 1;
}

void
EpochFrequencyPlacement::save(SnapshotWriter &w) const
{
    w.u64(accessesThisEpoch_);
    w.vecU32(pageCount_);
    // epochs_ is unregistered telemetry; carry its value inline.
    w.u64(epochs_.value());
}

void
EpochFrequencyPlacement::restore(SnapshotReader &r)
{
    accessesThisEpoch_ = r.u64();
    std::vector<std::uint32_t> counts;
    r.vecU32(counts);
    if (!r.ok())
        return;
    if (counts.size() != pageCount_.size()) {
        r.fail("tlm-freq: page counter table size mismatch");
        return;
    }
    pageCount_ = std::move(counts);
    epochs_.restoreValue(r.u64());
}

} // namespace cameo
