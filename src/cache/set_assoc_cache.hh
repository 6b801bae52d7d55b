/**
 * @file
 * Functional + latency model of a set-associative writeback cache.
 *
 * Used for the shared L3 (32MB, 16-way, 24 cycles in Table I; scaled
 * proportionally in the default configuration). The model is
 * trace-driven: an access returns hit/miss plus any victim that must be
 * written back; the caller (CpuCore/System) is responsible for timing
 * the resulting memory traffic.
 *
 * Replacement decisions are exactly those of chooseVictim()
 * (cache/replacement.hh), which tests/test_cache.cc drives as the
 * reference model; this class reaches them in O(1) per access through
 * a derived index (DESIGN.md §8).
 */

#ifndef CAMEO_CACHE_SET_ASSOC_CACHE_HH
#define CAMEO_CACHE_SET_ASSOC_CACHE_HH

#include <bit>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "check/audit.hh"
#include "snapshot/snapshot.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace cameo
{

/**
 * Result of one cache access. Deliberately a 16-byte POD — this is
 * returned once per simulated access from the hottest function in the
 * simulator, and two registers beat a hidden sret buffer.
 */
struct CacheAccessResult
{
    /** Dirty victim line to write back; meaningful when hasWriteback. */
    LineAddr writebackLine = 0;

    /** True if the line was present. */
    bool hit = false;

    /** True when a dirty victim was evicted (miss path only). */
    bool hasWriteback = false;
};

/** A set-associative, write-allocate, writeback cache. */
class SetAssocCache
{
  public:
    /** Maximum supported associativity. */
    static constexpr std::uint32_t kMaxWays = 32;

    /**
     * @param name           Stat prefix, e.g. "l3".
     * @param capacity_bytes Total data capacity (power-of-two sets).
     * @param ways           Associativity.
     * @param hit_latency    Load-to-use latency in CPU cycles.
     * @param policy         Replacement policy (default LRU).
     * @param seed           RNG seed for the Random policy.
     */
    SetAssocCache(std::string name, std::uint64_t capacity_bytes,
                  std::uint32_t ways, Tick hit_latency,
                  ReplPolicy policy = ReplPolicy::Lru,
                  std::uint64_t seed = 1);

    SetAssocCache(const SetAssocCache &) = delete;
    SetAssocCache &operator=(const SetAssocCache &) = delete;

    /**
     * Access @p line; allocates on miss (write-allocate).
     *
     * Defined inline below — one call per simulated access in both
     * fidelity modes makes this the hottest function in the simulator.
     *
     * @param line     Line address (OS-physical).
     * @param is_write Marks the line dirty on hit or after allocation.
     * @return Hit/miss and any dirty victim to write back.
     */
    CacheAccessResult access(LineAddr line, bool is_write);

    /** Non-allocating presence check (no LRU update). */
    bool probe(LineAddr line) const;

    /** Drop @p line if present; returns true if it was dirty. */
    bool invalidate(LineAddr line);

    Tick hitLatency() const { return hitLatency_; }
    std::uint64_t numSets() const { return numSets_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint64_t capacityBytes() const
    {
        return numSets_ * ways_ * kLineBytes;
    }

    void registerStats(StatRegistry &registry);

    /**
     * Checkpoint the tag/dirty/LRU arrays, the LRU use clock, and the
     * Random-policy RNG cursor. Geometry is structural; restore()
     * verifies it and flags @p r on mismatch. Counters travel in the
     * stats section, not here. The fingerprints and recency lists are
     * derived state: restore() rebuilds them from the tags and
     * timestamps.
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &writebacks() const { return writebacks_; }

  private:
    /** findWay()'s answer when no valid way holds the tag. */
    static constexpr std::uint32_t kNoWay = kMaxWays;

    /** Fingerprint lanes (ways) per 64-bit fingerprint word. */
    static constexpr std::uint32_t kLanes = 8;
    static constexpr std::uint64_t kLaneOnes = 0x0101010101010101ull;
    static constexpr std::uint64_t kLaneHighs = 0x8080808080808080ull;

    /** Multiplier moving lane i's bit 0 to bit 56 + i. */
    static constexpr std::uint64_t kGatherLanes = 0x0102040810204080ull;

    std::uint64_t setOf(LineAddr line) const { return line & setMask_; }
    LineAddr tagOf(LineAddr line) const { return line >> setShift_; }

    /** Bit @p w set for every way index of this cache. */
    std::uint32_t waysMask() const
    {
        return ways_ == 32 ? ~std::uint32_t{0} : (1u << ways_) - 1;
    }

    /** One-byte hash of @p tag: the top byte of a Fibonacci multiply. */
    static std::uint64_t fingerprintOf(LineAddr tag)
    {
        return (tag * 0x9E3779B97F4A7C15ull) >> 56;
    }

    /** The valid way of @p set holding @p tag, or kNoWay. */
    std::uint32_t findWay(std::uint64_t set, LineAddr tag) const;

    /** Store @p tag's fingerprint in lane @p way of @p set. */
    void setFingerprint(std::uint64_t set, std::uint32_t way, LineAddr tag);

    /** Move @p way of @p set to the MRU end of its recency list. */
    void promote(std::uint64_t set, std::uint32_t way);

    /** The way with the smallest (lastUse, way) in @p set: the
     *  recency list's LRU end, found by a full scan (audit only). */
    std::uint32_t oldestWay(std::uint64_t set) const;

    /** Recompute fingerprints from tags_ and recency lists from
     *  lastUse_ (each set sorted on (lastUse, way)). */
    void rebuildIndex();

    std::string name_;
    std::uint64_t numSets_;
    std::uint64_t setMask_;
    unsigned setShift_;
    std::uint32_t ways_;
    std::uint32_t fpWords_; ///< Fingerprint words per set.
    Tick hitLatency_;
    ReplPolicy policy_;
    Rng rng_;
    std::uint64_t useClock_ = 0;

    // Serialized state. Per way, set-major: the full tag and the LRU
    // timestamp (the clock value of the way's last access); per set:
    // the validity and dirtiness bitmaps (bit w = way w). Every access
    // still stores one timestamp — they are the snapshot's LRU record
    // — but no access reads them.
    std::vector<LineAddr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint32_t> validMask_;
    std::vector<std::uint32_t> dirtyMask_;

    // Derived index, rebuilt by restore(). Byte w % 8 of a set's word
    // w / 8 holds fingerprintOf(tag of way w). Per way, set-major, the
    // recency list's links toward the LRU end (older_) and the MRU end
    // (newer_); per set, its two ends. The list orders a set's ways by
    // ascending (lastUse, way).
    std::vector<std::uint64_t> fingerprints_;
    std::vector<std::uint8_t> older_;
    std::vector<std::uint8_t> newer_;
    std::vector<std::uint8_t> mru_;
    std::vector<std::uint8_t> lru_;

    Counter hits_;
    Counter misses_;
    Counter writebacks_;
};

inline std::uint32_t
SetAssocCache::findWay(std::uint64_t set, LineAddr tag) const
{
    // SWAR match of the tag's fingerprint against every lane: a lane
    // equal to it becomes a zero byte of x, and the zero-byte test
    // flags its high bit. A borrow can also flag a lane above a true
    // zero, never hide one, so the candidates are a superset of the
    // matches; the multiply gathers one flag per lane into a way mask.
    const std::uint64_t pattern = fingerprintOf(tag) * kLaneOnes;
    const std::uint64_t *fp = &fingerprints_[set * fpWords_];
    std::uint32_t candidates = 0;
    for (std::uint32_t i = 0; i < fpWords_; ++i) {
        const std::uint64_t x = fp[i] ^ pattern;
        const std::uint64_t zero = (x - kLaneOnes) & ~x & kLaneHighs;
        const std::uint64_t gathered = (zero >> 7) * kGatherLanes;
        const auto lanes = static_cast<std::uint32_t>(gathered >> 56);
        candidates |= lanes << (kLanes * i);
    }
    // Verify each candidate's full tag, lowest way first.
    candidates &= validMask_[set];
    const LineAddr *tags = &tags_[set * ways_];
    for (; candidates != 0; candidates &= candidates - 1) {
        const auto w =
            static_cast<std::uint32_t>(std::countr_zero(candidates));
        if (tags[w] == tag)
            return w;
    }
    return kNoWay;
}

inline void
SetAssocCache::setFingerprint(std::uint64_t set, std::uint32_t way,
                              LineAddr tag)
{
    std::uint64_t &word = fingerprints_[set * fpWords_ + way / kLanes];
    const unsigned shift = 8 * (way % kLanes);
    word = (word & ~(std::uint64_t{0xff} << shift)) |
           (fingerprintOf(tag) << shift);
}

inline void
SetAssocCache::promote(std::uint64_t set, std::uint32_t way)
{
    const std::uint8_t mru = mru_[set];
    if (way == mru)
        return;
    std::uint8_t *older = &older_[set * ways_];
    std::uint8_t *newer = &newer_[set * ways_];
    const std::uint8_t o = older[way];
    const std::uint8_t n = newer[way];
    if (way == lru_[set])
        lru_[set] = n;
    else
        newer[o] = n;
    older[n] = o;
    older[way] = mru;
    newer[mru] = static_cast<std::uint8_t>(way);
    mru_[set] = static_cast<std::uint8_t>(way);
}

inline CacheAccessResult
SetAssocCache::access(LineAddr line, bool is_write)
{
    const std::uint64_t set = setOf(line);
    const LineAddr tag = tagOf(line);
    const std::uint64_t base = set * ways_;
    ++useClock_;

    // Every access makes its way the newest: its timestamp becomes the
    // largest in the set (the clock only rises), so moving it to the
    // MRU end keeps the list in (lastUse, way) order.
    if (const std::uint32_t w = findWay(set, tag); w != kNoWay) {
        lastUse_[base + w] = useClock_;
        promote(set, w);
        dirtyMask_[set] |= static_cast<std::uint32_t>(is_write) << w;
        hits_.inc();
        return CacheAccessResult{0, true, false};
    }

    misses_.inc();

    // Victim selection — the same decision procedure as chooseVictim:
    // the lowest-index invalid way when one exists, else the policy.
    // LRU's first-lowest timestamp is the recency list's LRU end.
    const std::uint32_t valid = validMask_[set];
    std::uint32_t victim;
    if (const std::uint32_t invalid = ~valid & waysMask()) {
        victim = static_cast<std::uint32_t>(std::countr_zero(invalid));
    } else if (policy_ == ReplPolicy::Random) {
        victim = static_cast<std::uint32_t>(rng_.next(ways_));
    } else {
        victim = lru_[set];
        CAMEO_AUDIT(victim == oldestWay(set),
                    "cache: recency list's LRU way is not the set's "
                    "(lastUse, way) minimum");
    }

    const std::uint32_t bit = 1u << victim;
    CacheAccessResult result{0, false, false};
    if ((valid & bit) != 0 && (dirtyMask_[set] & bit) != 0) {
        result.writebackLine = (tags_[base + victim] << setShift_) | set;
        result.hasWriteback = true;
        writebacks_.inc();
    }
    tags_[base + victim] = tag;
    setFingerprint(set, victim, tag);
    validMask_[set] = valid | bit;
    dirtyMask_[set] = (dirtyMask_[set] & ~bit) |
                      (static_cast<std::uint32_t>(is_write) << victim);
    lastUse_[base + victim] = useClock_;
    promote(set, victim);
    return result;
}

} // namespace cameo

#endif // CAMEO_CACHE_SET_ASSOC_CACHE_HH
