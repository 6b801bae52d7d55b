/**
 * @file
 * Banshee sampling-counter placement implementation.
 */

#include "orgs/policy/sampling_freq_placement.hh"

#include <cassert>

namespace cameo
{

SamplingFrequencyPlacement::SamplingFrequencyPlacement(
    std::uint64_t stacked_pages, std::uint64_t total_pages,
    const BansheePolicyConfig &config, std::uint64_t epoch_accesses,
    std::uint64_t seed)
    : count_(total_pages, 0), stackedPages_(stacked_pages),
      sampleRate_(config.sampleRate), hotThreshold_(config.hotThreshold),
      victimProbes_(config.victimProbes), epochLength_(epoch_accesses),
      rng_(seed ^ 0xBA45),
      counterUpdates_("banshee.counterUpdates",
                      "sampled frequency-counter updates")
{
    assert(sampleRate_ != 0 && victimProbes_ != 0 && epochLength_ != 0);
}

std::uint64_t
SamplingFrequencyPlacement::selectVictim(PlacementContext &ctx)
{
    // Coldest of victimProbes_ random stacked device pages: Banshee
    // approximates frequency-LRU with the same sampled counters it
    // uses for admission.
    std::uint64_t victim = rng_.next(stackedPages_);
    for (std::uint32_t p = 1; p < victimProbes_; ++p) {
        const std::uint64_t cand = rng_.next(stackedPages_);
        if (count_[ctx.physPageAt(cand)] < count_[ctx.physPageAt(victim)])
            victim = cand;
    }
    return victim;
}

void
SamplingFrequencyPlacement::onAccess(PlacementContext &ctx, Tick when,
                                     PageAddr phys_page,
                                     std::uint64_t device_page, bool is_write)
{
    (void)is_write;
    // Epoch decay runs on every access so the window is a fixed number
    // of demand accesses regardless of the sampling draw below.
    if (++accessesThisEpoch_ >= epochLength_) {
        accessesThisEpoch_ = 0;
        for (auto &c : count_)
            c >>= 1;
    }
    // One RNG draw per access, whatever the tick (DESIGN.md §13):
    // counter state and every later draw stay bit-identical between
    // functional and detailed runs.
    if (rng_.next(sampleRate_) != 0)
        return;
    counterUpdates_.inc();
    ++count_[phys_page];
    if (device_page < stackedPages_)
        return;
    // Sampled off-chip access: admit the page only when its sampled
    // frequency beats a probed victim's by the hysteresis margin.
    const std::uint64_t victim_dev = selectVictim(ctx);
    const PageAddr victim_phys = ctx.physPageAt(victim_dev);
    if (count_[phys_page] <= count_[victim_phys] + hotThreshold_)
        return;
    ctx.billPageSwap(when, device_page, victim_dev);
    ctx.swapMapping(phys_page, victim_phys);
}

void
SamplingFrequencyPlacement::registerStats(StatRegistry &registry)
{
    registry.add(counterUpdates_);
}

void
SamplingFrequencyPlacement::save(SnapshotWriter &w) const
{
    w.vecU32(count_);
    for (const std::uint64_t s : rng_.state())
        w.u64(s);
    w.u64(accessesThisEpoch_);
}

void
SamplingFrequencyPlacement::restore(SnapshotReader &r)
{
    std::vector<std::uint32_t> counts;
    r.vecU32(counts);
    if (!r.ok())
        return;
    if (counts.size() != count_.size()) {
        r.fail("banshee: sampled counter table size mismatch");
        return;
    }
    count_ = std::move(counts);
    Rng::State rngState;
    for (std::uint64_t &s : rngState)
        s = r.u64();
    rng_.setState(rngState);
    accessesThisEpoch_ = r.u64();
}

} // namespace cameo
