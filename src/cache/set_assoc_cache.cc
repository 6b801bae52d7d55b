#include "cache/set_assoc_cache.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>

#include "util/bitops.hh"

namespace cameo
{

SetAssocCache::SetAssocCache(std::string name, std::uint64_t capacity_bytes,
                             std::uint32_t ways, Tick hit_latency,
                             ReplPolicy policy, std::uint64_t seed)
    : name_(std::move(name)), numSets_(capacity_bytes / kLineBytes / ways),
      ways_(ways), fpWords_((ways + kLanes - 1) / kLanes),
      hitLatency_(hit_latency), policy_(policy), rng_(seed),
      hits_(name_ + ".hits", "cache hits"),
      misses_(name_ + ".misses", "cache misses"),
      writebacks_(name_ + ".writebacks", "dirty evictions")
{
    assert(ways != 0 && ways <= kMaxWays);
    assert(numSets_ != 0 && isPowerOfTwo(numSets_) &&
           "cache capacity must give a power-of-two set count");
    setMask_ = numSets_ - 1;
    setShift_ = exactLog2(numSets_);
    tags_.resize(numSets_ * ways_);
    lastUse_.resize(numSets_ * ways_);
    validMask_.resize(numSets_);
    dirtyMask_.resize(numSets_);
    fingerprints_.resize(numSets_ * fpWords_);
    older_.resize(numSets_ * ways_);
    newer_.resize(numSets_ * ways_);
    mru_.resize(numSets_);
    lru_.resize(numSets_);
    rebuildIndex();
}

bool
SetAssocCache::probe(LineAddr line) const
{
    return findWay(setOf(line), tagOf(line)) != kNoWay;
}

bool
SetAssocCache::invalidate(LineAddr line)
{
    const std::uint64_t set = setOf(line);
    const std::uint32_t w = findWay(set, tagOf(line));
    if (w == kNoWay)
        return false;
    // Only validity and dirtiness are dropped: the stale tag and
    // timestamp stay in the snapshot record, and the fingerprint and
    // list position stay consistent with them.
    const std::uint32_t bit = 1u << w;
    const bool was_dirty = (dirtyMask_[set] & bit) != 0;
    validMask_[set] &= ~bit;
    dirtyMask_[set] &= ~bit;
    return was_dirty;
}

std::uint32_t
SetAssocCache::oldestWay(std::uint64_t set) const
{
    const std::uint64_t *last_use = &lastUse_[set * ways_];
    std::uint32_t oldest = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (last_use[w] < last_use[oldest])
            oldest = w;
    }
    return oldest;
}

void
SetAssocCache::rebuildIndex()
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const std::uint64_t base = set * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w)
            setFingerprint(set, w, tags_[base + w]);

        std::array<std::uint8_t, kMaxWays> order{};
        std::iota(order.begin(), order.begin() + ways_, std::uint8_t{0});
        const std::uint64_t *last_use = &lastUse_[base];
        const auto older_first = [last_use](std::uint8_t a, std::uint8_t b) {
            return last_use[a] != last_use[b] ? last_use[a] < last_use[b]
                                              : a < b;
        };
        std::sort(order.begin(), order.begin() + ways_, older_first);
        // promote() never reads the ends' outer links (older_ of the
        // LRU way, newer_ of the MRU way); they start as self-links.
        for (std::uint32_t i = 0; i < ways_; ++i) {
            older_[base + order[i]] = order[i == 0 ? 0 : i - 1];
            newer_[base + order[i]] = order[i + 1 == ways_ ? i : i + 1];
        }
        lru_[set] = order[0];
        mru_[set] = order[ways_ - 1];
    }
}

void
SetAssocCache::registerStats(StatRegistry &registry)
{
    registry.add(hits_);
    registry.add(misses_);
    registry.add(writebacks_);
}

void
SetAssocCache::save(SnapshotWriter &w) const
{
    w.u64(numSets_);
    w.u32(ways_);
    w.u64(useClock_);
    for (const std::uint64_t s : rng_.state())
        w.u64(s);
    // Same record stream as the historical array-of-structs layout:
    // set-major way order, tag / dirty / valid / lastUse per way.
    for (std::uint64_t i = 0; i < numSets_ * ways_; ++i) {
        const std::uint64_t set = i / ways_;
        const std::uint32_t bit = 1u << (i % ways_);
        w.u64(tags_[i]);
        w.b((dirtyMask_[set] & bit) != 0);
        w.b((validMask_[set] & bit) != 0);
        w.u64(lastUse_[i]);
    }
}

void
SetAssocCache::restore(SnapshotReader &r)
{
    const std::uint64_t nSets = r.u64();
    const std::uint32_t nWays = r.u32();
    if (!r.ok())
        return;
    if (nSets != numSets_ || nWays != ways_) {
        r.fail("cache: '" + name_ + "' geometry mismatch: snapshot has " +
               std::to_string(nSets) + " sets x " +
               std::to_string(nWays) + " ways, this cache has " +
               std::to_string(numSets_) + " x " + std::to_string(ways_));
        return;
    }
    useClock_ = r.u64();
    Rng::State rngState;
    for (std::uint64_t &s : rngState)
        s = r.u64();
    rng_.setState(rngState);
    std::fill(validMask_.begin(), validMask_.end(), 0u);
    std::fill(dirtyMask_.begin(), dirtyMask_.end(), 0u);
    for (std::uint64_t i = 0; i < numSets_ * ways_; ++i) {
        const std::uint64_t set = i / ways_;
        const std::uint32_t bit = 1u << (i % ways_);
        tags_[i] = r.u64();
        if (r.b())
            dirtyMask_[set] |= bit;
        if (r.b())
            validMask_[set] |= bit;
        lastUse_[i] = r.u64();
        // Every timestamp is a past clock value; a later one would let
        // the next access's timestamp tie or undercut it, breaking the
        // recency list's (lastUse, way) order.
        if (lastUse_[i] > useClock_) {
            r.fail("cache: '" + name_ + "' snapshot has a way last used at " +
                   std::to_string(lastUse_[i]) + ", after its use clock " +
                   std::to_string(useClock_));
            return;
        }
    }
    rebuildIndex();
}

} // namespace cameo
