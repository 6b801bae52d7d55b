/**
 * @file
 * Unit tests for the set-associative cache (shared L3) and its
 * replacement policies, including a parameterized sweep over
 * associativities and a differential test against a reference tag
 * array driven by chooseVictim().
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "cache/replacement.hh"
#include "cache/set_assoc_cache.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

TEST(ReplacementTest, PrefersInvalidWays)
{
    Rng rng(1);
    std::vector<WayMeta> ways(4);
    ways[0].valid = true;
    ways[1].valid = false;
    ways[2].valid = true;
    ways[3].valid = true;
    EXPECT_EQ(chooseVictim(ways, ReplPolicy::Lru, rng), 1u);
    EXPECT_EQ(chooseVictim(ways, ReplPolicy::Random, rng), 1u);
}

TEST(ReplacementTest, LruPicksOldest)
{
    Rng rng(1);
    std::vector<WayMeta> ways(4);
    for (std::uint32_t w = 0; w < 4; ++w) {
        ways[w].valid = true;
        ways[w].lastUse = 100 + w;
    }
    ways[2].lastUse = 5;
    EXPECT_EQ(chooseVictim(ways, ReplPolicy::Lru, rng), 2u);
}

TEST(ReplacementTest, RandomCoversAllWays)
{
    Rng rng(2);
    std::vector<WayMeta> ways(4);
    for (auto &w : ways)
        w.valid = true;
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(chooseVictim(ways, ReplPolicy::Random, rng));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(SetAssocCacheTest, MissThenHit)
{
    SetAssocCache cache("t", 16 << 10, 4, 24);
    EXPECT_FALSE(cache.access(100, false).hit);
    EXPECT_TRUE(cache.access(100, false).hit);
    EXPECT_EQ(cache.hits().value(), 1u);
    EXPECT_EQ(cache.misses().value(), 1u);
}

TEST(SetAssocCacheTest, GeometryDerivation)
{
    SetAssocCache cache("t", 64 << 10, 16, 24);
    EXPECT_EQ(cache.numSets(), 64u);
    EXPECT_EQ(cache.numWays(), 16u);
    EXPECT_EQ(cache.capacityBytes(), 64u << 10);
}

TEST(SetAssocCacheTest, DirtyEvictionProducesWriteback)
{
    // 1-way cache: second line to the same set evicts the first.
    SetAssocCache cache("t", 64 * 64, 1, 24); // 64 sets, direct-mapped
    cache.access(7, true);                    // dirty
    const auto res = cache.access(7 + 64, false);
    EXPECT_FALSE(res.hit);
    ASSERT_TRUE(res.hasWriteback);
    EXPECT_EQ(res.writebackLine, 7u);
    EXPECT_EQ(cache.writebacks().value(), 1u);
}

TEST(SetAssocCacheTest, CleanEvictionSilent)
{
    SetAssocCache cache("t", 64 * 64, 1, 24);
    cache.access(7, false); // clean
    const auto res = cache.access(7 + 64, false);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(res.hasWriteback);
}

TEST(SetAssocCacheTest, WriteMarksDirtyOnHit)
{
    SetAssocCache cache("t", 64 * 64, 1, 24);
    cache.access(7, false); // clean fill
    cache.access(7, true);  // dirty it
    const auto res = cache.access(7 + 64, false);
    ASSERT_TRUE(res.hasWriteback);
}

TEST(SetAssocCacheTest, LruOrderWithinSet)
{
    // 2-way: A, B, touch A, insert C -> B evicted.
    SetAssocCache cache("t", 2 * 64 * 64, 2, 24); // 64 sets, 2-way
    const LineAddr a = 3, b = 3 + 64, c = 3 + 128;
    cache.access(a, false);
    cache.access(b, false);
    cache.access(a, false); // A most recent
    cache.access(c, false); // evicts B
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(SetAssocCacheTest, ProbeDoesNotAllocateOrTouch)
{
    SetAssocCache cache("t", 2 * 64 * 64, 2, 24);
    EXPECT_FALSE(cache.probe(42));
    EXPECT_EQ(cache.misses().value(), 0u);
    cache.access(42, false);
    EXPECT_TRUE(cache.probe(42));
}

TEST(SetAssocCacheTest, InvalidateReportsDirty)
{
    SetAssocCache cache("t", 16 << 10, 4, 24);
    cache.access(10, true);
    cache.access(11, false);
    EXPECT_TRUE(cache.invalidate(10));
    EXPECT_FALSE(cache.invalidate(11));
    EXPECT_FALSE(cache.invalidate(12)); // absent
    EXPECT_FALSE(cache.probe(10));
}

TEST(SetAssocCacheTest, HitLatencyStored)
{
    SetAssocCache cache("t", 16 << 10, 4, 42);
    EXPECT_EQ(cache.hitLatency(), 42u);
}

/**
 * The reference model: a plain tag array whose victims come from
 * chooseVictim() over per-way WayMeta, scanning every way on every
 * access. SetAssocCache must reproduce it exactly.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint64_t sets, std::uint32_t ways,
                   ReplPolicy policy, std::uint64_t seed)
        : sets_(sets), ways_(ways),
          setShift_(static_cast<unsigned>(std::countr_zero(sets))),
          policy_(policy), rng_(seed), meta_(sets * ways),
          tags_(sets * ways), dirty_(sets * ways)
    {
    }

    CacheAccessResult access(LineAddr line, bool is_write)
    {
        const std::uint64_t set = line & (sets_ - 1);
        const LineAddr tag = line >> setShift_;
        ++clock_;
        const std::uint64_t base = set * ways_;
        if (const std::uint32_t w = find(set, tag); w != ways_) {
            meta_[base + w].lastUse = clock_;
            dirty_[base + w] |= is_write;
            ++hits;
            return CacheAccessResult{0, true, false};
        }
        ++misses;
        const std::uint32_t v = chooseVictim(
            std::span<const WayMeta>(&meta_[base], ways_), policy_, rng_);
        CacheAccessResult result{0, false, false};
        if (meta_[base + v].valid && dirty_[base + v]) {
            result.writebackLine = (tags_[base + v] << setShift_) | set;
            result.hasWriteback = true;
            ++writebacks;
        }
        tags_[base + v] = tag;
        dirty_[base + v] = is_write;
        meta_[base + v] = WayMeta{true, clock_};
        return result;
    }

    bool probe(LineAddr line) const
    {
        return find(line & (sets_ - 1), line >> setShift_) != ways_;
    }

    bool invalidate(LineAddr line)
    {
        const std::uint64_t set = line & (sets_ - 1);
        const std::uint32_t w = find(set, line >> setShift_);
        if (w == ways_)
            return false;
        const std::uint64_t i = set * ways_ + w;
        const bool was_dirty = dirty_[i] != 0;
        meta_[i].valid = false;
        dirty_[i] = 0;
        return was_dirty;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    /** The valid way holding @p tag, or ways_. */
    std::uint32_t find(std::uint64_t set, LineAddr tag) const
    {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint64_t i = set * ways_ + w;
            if (meta_[i].valid && tags_[i] == tag)
                return w;
        }
        return ways_;
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    unsigned setShift_;
    ReplPolicy policy_;
    Rng rng_;
    std::uint64_t clock_ = 0;
    std::vector<WayMeta> meta_;
    std::vector<LineAddr> tags_;
    std::vector<std::uint8_t> dirty_;
};

/** @p cache's snapshot section, framed. */
std::vector<std::uint8_t>
savedImage(const SetAssocCache &cache)
{
    SnapshotWriter w;
    w.beginSection("llc");
    cache.save(w);
    w.endSection();
    return w.finish();
}

/** Restore @p image (from savedImage) into @p cache. */
void
restoreImage(SetAssocCache &cache, std::vector<std::uint8_t> image)
{
    SnapshotReader r;
    ASSERT_TRUE(r.open(std::move(image))) << r.error();
    ASSERT_TRUE(r.enterSection("llc"));
    cache.restore(r);
    r.leaveSection();
    ASSERT_TRUE(r.ok()) << r.error();
}

bool
sameResult(const CacheAccessResult &a, const CacheAccessResult &b)
{
    return a.hit == b.hit && a.hasWriteback == b.hasWriteback &&
           (!a.hasWriteback || a.writebackLine == b.writebackLine);
}

TEST(SetAssocCacheTest, MatchesReferenceModel)
{
    // Random reads, writes, probes and invalidations over about six
    // times the capacity, half of them aimed at a hot region half the
    // capacity's size so hits promote ways as often as misses evict
    // them. The lines are scattered over a 38-bit space, so tags share
    // fingerprints as often as arbitrary tags do. At mid-stream the
    // cache is saved and restored into a fresh one (another RNG seed:
    // the Random cursor must travel), which from then on must answer
    // every operation the same way.
    constexpr std::uint64_t kSets = 8;
    constexpr std::uint64_t kOps = 200'000;
    for (const std::uint32_t ways :
         {1u, 2u, 3u, 7u, 8u, 9u, 16u, 17u, 31u, 32u}) {
        for (const ReplPolicy policy : {ReplPolicy::Lru, ReplPolicy::Random}) {
            const bool lru = policy == ReplPolicy::Lru;
            SCOPED_TRACE(testing::Message()
                         << ways << " ways, " << (lru ? "LRU" : "Random"));
            const std::uint64_t capacity = kSets * ways * kLineBytes;
            SetAssocCache cache("t", capacity, ways, 24, policy, 7);
            ReferenceCache model(kSets, ways, policy, 7);
            std::unique_ptr<SetAssocCache> restored;
            std::uint64_t hits_at_restore = 0, misses_at_restore = 0;
            std::uint64_t writebacks_at_restore = 0;
            Rng rng(ways * 2 + (lru ? 0 : 1));
            std::vector<LineAddr> universe(6 * kSets * ways);
            for (LineAddr &line : universe)
                line = rng.next(std::uint64_t{1} << 38);
            bool diverged = false;
            for (std::uint64_t i = 0; i < kOps && !diverged; ++i) {
                if (i == kOps / 2) {
                    restored = std::make_unique<SetAssocCache>(
                        "t", capacity, ways, 24, policy, 99);
                    ASSERT_NO_FATAL_FAILURE(
                        restoreImage(*restored, savedImage(cache)));
                    hits_at_restore = model.hits;
                    misses_at_restore = model.misses;
                    writebacks_at_restore = model.writebacks;
                }
                const LineAddr line =
                    universe[rng.chance(0.5)
                                 ? rng.next(universe.size() / 12 + 1)
                                 : rng.next(universe.size())];
                const std::uint64_t op = rng.next(100);
                if (op < 5) {
                    const bool want = model.probe(line);
                    diverged = cache.probe(line) != want ||
                               (restored && restored->probe(line) != want);
                } else if (op < 10) {
                    const bool want = model.invalidate(line);
                    diverged =
                        cache.invalidate(line) != want ||
                        (restored && restored->invalidate(line) != want);
                } else {
                    const bool is_write = op < 40;
                    const CacheAccessResult want =
                        model.access(line, is_write);
                    diverged =
                        !sameResult(cache.access(line, is_write), want) ||
                        (restored &&
                         !sameResult(restored->access(line, is_write),
                                     want));
                }
                if (diverged) {
                    ADD_FAILURE() << "operation " << i << " (line " << line
                                  << ", kind " << op << ") differs from "
                                  << "the reference model";
                }
            }
            if (diverged || !restored)
                continue;
            EXPECT_EQ(cache.hits().value(), model.hits);
            EXPECT_EQ(cache.misses().value(), model.misses);
            EXPECT_EQ(cache.writebacks().value(), model.writebacks);
            EXPECT_EQ(restored->hits().value(), model.hits - hits_at_restore);
            EXPECT_EQ(restored->misses().value(),
                      model.misses - misses_at_restore);
            EXPECT_EQ(restored->writebacks().value(),
                      model.writebacks - writebacks_at_restore);
            EXPECT_EQ(savedImage(*restored), savedImage(cache));
        }
    }
}

TEST(SetAssocCacheTest, RestoreRejectsTimestampAfterUseClock)
{
    // A saved timestamp is a past clock value. One beyond the saved
    // clock cannot come from save(), and would leave the next access
    // no later than it.
    SnapshotWriter w;
    w.beginSection("llc");
    w.u64(64);
    w.u32(2);
    w.u64(1); // use clock
    for (int i = 0; i < 4; ++i)
        w.u64(i + 1); // RNG state
    for (std::uint64_t i = 0; i < 64 * 2; ++i) {
        w.u64(0);
        w.b(false);
        w.b(i == 10);
        w.u64(i == 10 ? 2 : 0); // way 0 of set 5, used after the clock
    }
    w.endSection();
    SetAssocCache cache("t", 2 * 64 * 64, 2, 24);
    SnapshotReader r;
    ASSERT_TRUE(r.open(w.finish()));
    ASSERT_TRUE(r.enterSection("llc"));
    cache.restore(r);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("cache: 't' snapshot has a way last used"),
              std::string::npos)
        << r.error();
}

/** Parameterized sweep: the cache retains a working set that fits,
 *  at every associativity. */
class CacheWaysTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheWaysTest, RetainsFittingWorkingSet)
{
    const std::uint32_t ways = GetParam();
    SetAssocCache cache("t", 64ull * 64 * ways, ways, 24);
    // Working set = exactly the cache capacity, touched twice.
    const std::uint64_t lines = cache.numSets() * ways;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i, false);
    const std::uint64_t misses_before = cache.misses().value();
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i, false);
    EXPECT_EQ(cache.misses().value(), misses_before);
    EXPECT_EQ(cache.hits().value(), lines);
}

TEST_P(CacheWaysTest, EvictsWhenOverCommitted)
{
    const std::uint32_t ways = GetParam();
    SetAssocCache cache("t", 64ull * 64 * ways, ways, 24);
    const std::uint64_t lines = cache.numSets() * ways;
    // Touch twice the capacity cyclically: second pass must miss
    // (LRU worst case for cyclic reuse).
    for (std::uint64_t i = 0; i < 2 * lines; ++i)
        cache.access(i, false);
    const std::uint64_t misses_before = cache.misses().value();
    cache.access(0, false);
    EXPECT_EQ(cache.misses().value(), misses_before + 1);
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheWaysTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 9u, 16u,
                                           17u, 32u));

} // namespace
} // namespace cameo
