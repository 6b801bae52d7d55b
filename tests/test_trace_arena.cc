/**
 * @file
 * Tests for the trace-arena subsystem (trace/trace_arena.hh): packed
 * replay bit-identity against fresh generation, cursor skip semantics,
 * cache sharing/eviction/concurrency, disk persistence, and
 * system- and sweep-level equivalence of arena replay (the default
 * stream path) and generator-sourced runs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep.hh"
#include "snapshot_common.hh"
#include "system/system.hh"
#include "trace/generator.hh"
#include "trace/trace_arena.hh"
#include "trace/trace_file.hh"
#include "trace_common.hh"

namespace cameo
{
namespace
{

/** Temporary directory that cleans up after itself. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : path_((std::filesystem::temp_directory_path() / name).string())
    {
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

GeneratorParams
smallParams()
{
    GeneratorParams gp;
    gp.footprintBytes = 256 << 12;
    gp.hotSetBytes = 8 << 10;
    gp.gapMeanInstructions = 20.0;
    return gp;
}

bool
sameAccess(const Access &a, const Access &b)
{
    return a.pc == b.pc && a.vaddr == b.vaddr &&
           a.isWrite == b.isWrite && a.dependsOnPrev == b.dependsOnPrev &&
           a.gapInstructions == b.gapInstructions;
}

/** @p config with every core's stream built by a fresh generator
 *  (the arena's reference), through SystemConfig::sourceFactory. */
SystemConfig
generatorSourced(SystemConfig config)
{
    config.sourceFactory =
        [](std::uint32_t, const WorkloadProfile &profile,
           const GeneratorParams &params,
           std::uint64_t seed) -> std::unique_ptr<AccessSource> {
        return std::make_unique<SyntheticGenerator>(profile, params, seed);
    };
    return config;
}

/** Pull @p n records via batches of @p batch. */
std::vector<Access>
drain(AccessSource &source, std::size_t n, std::size_t batch)
{
    std::vector<Access> out(n);
    std::size_t got = 0;
    while (got < n) {
        const std::size_t chunk = std::min(batch, n - got);
        source.refill(out.data() + got, chunk);
        got += chunk;
    }
    return out;
}

// --- Replay bit-identity --------------------------------------------

TEST(ArenaReplayTest, BitIdenticalToGeneratorForAllWorkloads)
{
    // Every registered workload, three seeds: the arena must replay
    // the exact stream a fresh generator produces. This is the
    // property the golden suites lean on when sweeps enable arenas.
    constexpr std::uint64_t kCount = 3000;
    const GeneratorParams gp = smallParams();
    for (const WorkloadProfile &wl : allWorkloads()) {
        for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
            const auto arena = TraceArena::record(wl, gp, seed, kCount);
            ASSERT_EQ(arena->records(), kCount);
            ArenaReplaySource replay(arena);
            SyntheticGenerator gen(wl, gp, seed);
            const auto got = drain(replay, kCount, 64);
            const auto want = drain(gen, kCount, 64);
            for (std::uint64_t i = 0; i < kCount; ++i) {
                ASSERT_TRUE(sameAccess(got[i], want[i]))
                    << wl.name << " seed " << seed << " record " << i;
            }
        }
    }
}

TEST(ArenaReplayTest, BatchSizeDoesNotChangeStream)
{
    // Odd batch sizes, including one spanning multiple checkpoint
    // intervals and 2x the record count (so replay wraps mid-batch).
    constexpr std::uint64_t kCount = 2500;
    const WorkloadProfile &wl = *findWorkload("mcf");
    const auto arena = TraceArena::record(wl, smallParams(), 9, kCount);

    ArenaReplaySource reference(arena);
    const auto want = drain(reference, 2 * kCount, 64);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{1000}}) {
        ArenaReplaySource replay(arena);
        const auto got = drain(replay, 2 * kCount, batch);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(sameAccess(got[i], want[i]))
                << "batch " << batch << " record " << i;
        }
    }
}

TEST(ArenaReplayTest, SkipMatchesConsume)
{
    constexpr std::uint64_t kCount = 2600; // > 2 checkpoint intervals
    const WorkloadProfile &wl = *findWorkload("milc");
    const auto arena = TraceArena::record(wl, smallParams(), 3, kCount);

    // Skips within an interval, across checkpoints, and wrapping.
    for (const std::uint64_t skip :
         {1ull, 7ull, 1023ull, 1024ull, 2047ull, 2599ull, 2600ull,
          5200ull + 13ull}) {
        ArenaReplaySource skipped(arena);
        skipped.skip(skip);
        ArenaReplaySource consumed(arena);
        for (std::uint64_t i = 0; i < skip; ++i)
            (void)nextAccess(consumed);
        for (int i = 0; i < 50; ++i) {
            const Access a = nextAccess(skipped);
            const Access b = nextAccess(consumed);
            ASSERT_TRUE(sameAccess(a, b)) << "skip " << skip;
        }
    }
}

TEST(ArenaReplayTest, SkipZeroAndSkipComposition)
{
    constexpr std::uint64_t kCount = 2600;
    const WorkloadProfile &wl = *findWorkload("milc");
    const auto arena = TraceArena::record(wl, smallParams(), 3, kCount);

    // skip(0) is a no-op.
    ArenaReplaySource zero(arena);
    zero.skip(0);
    ArenaReplaySource plain(arena);
    for (int i = 0; i < 30; ++i)
        ASSERT_TRUE(sameAccess(nextAccess(zero), nextAccess(plain)));

    // skip(w); skip(p) == skip(w + p) — the restore fast-forward path —
    // including splits that straddle checkpoints and the wrap point.
    for (const auto &[first, second] :
         {std::pair<std::uint64_t, std::uint64_t>{0, 1024},
          {700, 900},
          {1023, 1},
          {2599, 1},      // second lands exactly on the end
          {2000, 1300}}) { // second wraps
        ArenaReplaySource split(arena);
        split.skip(first);
        split.skip(second);
        ArenaReplaySource whole(arena);
        whole.skip(first + second);
        for (int i = 0; i < 30; ++i) {
            ASSERT_TRUE(sameAccess(nextAccess(split), nextAccess(whole)))
                << first << " + " << second << " record " << i;
        }
    }
}

TEST(ArenaReplayTest, GeneratorSkipMatchesDiscard)
{
    const WorkloadProfile &wl = *findWorkload("omnetpp");
    SyntheticGenerator skipped(wl, smallParams(), 5);
    skipped.skip(1777);
    SyntheticGenerator consumed(wl, smallParams(), 5);
    for (int i = 0; i < 1777; ++i)
        (void)nextAccess(consumed);
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(sameAccess(nextAccess(skipped), nextAccess(consumed)));
}

// --- Cache behaviour ------------------------------------------------

TEST(ArenaCacheTest, SharesOneRecordingAcrossAcquires)
{
    TraceArenaCache cache(1ull << 30);
    const WorkloadProfile &wl = *findWorkload("mcf");
    const auto a = cache.acquire(wl, smallParams(), 1, 2000);
    const auto b = cache.acquire(wl, smallParams(), 1, 2000);
    EXPECT_EQ(a.get(), b.get());
    const TraceArenaStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.recordings, 1u);
    EXPECT_EQ(stats.residentBytes, a->memoryBytes());

    // Different seed, count, or params are different streams.
    const auto c = cache.acquire(wl, smallParams(), 2, 2000);
    EXPECT_NE(a.get(), c.get());
    const auto d = cache.acquire(wl, smallParams(), 1, 2001);
    EXPECT_NE(a.get(), d.get());
}

TEST(ArenaCacheTest, EvictsLeastRecentlyUsedOverCap)
{
    const WorkloadProfile &wl = *findWorkload("mcf");
    // Measure arena sizes with an uncapped probe cache first.
    TraceArenaCache probe(1ull << 30);
    const std::uint64_t bytesA =
        probe.acquire(wl, smallParams(), 1, 2000)->memoryBytes();
    const std::uint64_t bytesB =
        probe.acquire(wl, smallParams(), 2, 2000)->memoryBytes();

    // Cap fits A and B exactly; inserting C must evict the LRU (A).
    TraceArenaCache cache(bytesA + bytesB);
    (void)cache.acquire(wl, smallParams(), 1, 2000); // A
    (void)cache.acquire(wl, smallParams(), 2, 2000); // B
    EXPECT_EQ(cache.stats().evictions, 0u);
    (void)cache.acquire(wl, smallParams(), 3, 2000); // C -> evict
    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().residentBytes, bytesA + bytesB);

    // C (most recent) survived; A was evicted.
    const std::uint64_t hits_before = cache.stats().hits;
    (void)cache.acquire(wl, smallParams(), 3, 2000);
    EXPECT_EQ(cache.stats().hits, hits_before + 1);
    const std::uint64_t misses_before = cache.stats().misses;
    (void)cache.acquire(wl, smallParams(), 1, 2000);
    EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(ArenaCacheTest, ZeroCapDisablesCaching)
{
    // Cap 0 keeps nothing resident: each acquire records the stream
    // again, and its arena lives only as long as its replay source.
    TraceArenaCache cache(0);
    const WorkloadProfile &wl = *findWorkload("astar");
    for (std::uint64_t acquires = 1; acquires <= 2; ++acquires) {
        const auto source = cache.source(wl, smallParams(), 4, 1000);
        SyntheticGenerator gen(wl, smallParams(), 4);
        for (int i = 0; i < 500; ++i)
            ASSERT_TRUE(sameAccess(nextAccess(*source), nextAccess(gen)));
        const TraceArenaStats stats = cache.stats();
        EXPECT_EQ(stats.recordings, acquires);
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(stats.residentBytes, 0u);
    }
}

TEST(ArenaCacheTest, CapFromMbRejectsOverflow)
{
    EXPECT_EQ(TraceArenaCache::capBytesFromMb(0), 0u);
    EXPECT_EQ(TraceArenaCache::capBytesFromMb(512), 512ull << 20);
    EXPECT_EQ(TraceArenaCache::capBytesFromMb((1ull << 44) - 1),
              ((1ull << 44) - 1) << 20);
    // 2^44 MB is 2^64 bytes, which would wrap to a 0-byte cap.
    EXPECT_EQ(TraceArenaCache::capBytesFromMb(1ull << 44), std::nullopt);
}

TEST(ArenaCacheTest, ConcurrentAcquiresRecordOnce)
{
    TraceArenaCache cache(1ull << 30);
    const WorkloadProfile &wl = *findWorkload("leslie3d");
    std::vector<std::shared_ptr<const TraceArena>> got(8);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < 8; ++t) {
            threads.emplace_back([&cache, &wl, &got, t] {
                got[t] = cache.acquire(wl, smallParams(), 11, 3000);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    for (int t = 1; t < 8; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
    const TraceArenaStats stats = cache.stats();
    EXPECT_EQ(stats.recordings, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 7u);
}

TEST(ArenaCacheTest, PersistsArenasInCacheDir)
{
    TempDir dir("cameo_arena_cache_test");
    const WorkloadProfile &wl = *findWorkload("gcc");

    TraceArenaCache first(1ull << 30);
    first.setCacheDir(dir.path());
    const auto recorded = first.acquire(wl, smallParams(), 21, 2000);
    EXPECT_EQ(first.stats().recordings, 1u);
    // A .ctp file appeared.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path()))
        files += entry.path().extension() == ".ctp";
    EXPECT_EQ(files, 1u);

    // A fresh cache (fresh process, effectively) loads instead of
    // recording, and the replayed stream is identical.
    TraceArenaCache second(1ull << 30);
    second.setCacheDir(dir.path());
    const auto loaded = second.acquire(wl, smallParams(), 21, 2000);
    EXPECT_EQ(second.stats().diskLoads, 1u);
    EXPECT_EQ(second.stats().recordings, 0u);
    ArenaReplaySource a(recorded);
    ArenaReplaySource b(loaded);
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(sameAccess(nextAccess(a), nextAccess(b)));
}

TEST(ArenaCacheTest, CorruptCacheFileIsReRecorded)
{
    TempDir dir("cameo_arena_corrupt_test");
    const WorkloadProfile &wl = *findWorkload("lbm");

    TraceArenaCache first(1ull << 30);
    first.setCacheDir(dir.path());
    (void)first.acquire(wl, smallParams(), 33, 2000);
    std::string path;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        if (entry.path().extension() == ".ctp")
            path = entry.path().string();
    }
    ASSERT_FALSE(path.empty());
    // Truncate the persisted arena mid-payload.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    TraceArenaCache second(1ull << 30);
    second.setCacheDir(dir.path());
    const auto arena = second.acquire(wl, smallParams(), 33, 2000);
    EXPECT_EQ(second.stats().recordings, 1u); // fell back to recording
    ArenaReplaySource replay(arena);
    SyntheticGenerator gen(wl, smallParams(), 33);
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(sameAccess(nextAccess(replay), nextAccess(gen)));
}

TEST(ArenaCacheTest, StaleKeyFileIsReRecorded)
{
    TempDir dir("cameo_arena_stale_test");
    const WorkloadProfile &wl = *findWorkload("bwaves");
    TraceArenaCache first(1ull << 30);
    first.setCacheDir(dir.path());
    (void)first.acquire(wl, smallParams(), 44, 1500);
    std::string path;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        if (entry.path().extension() == ".ctp")
            path = entry.path().string();
    }
    ASSERT_FALSE(path.empty());

    // Overwrite with a valid packed file whose embedded key differs
    // (as if the generator changed since the file was written).
    const auto foreign =
        TraceArena::record(wl, smallParams(), 45, 1500);
    std::string error;
    ASSERT_TRUE(writePackedTraceFile(path, foreign->view(),
                                     "some-other-key", &error))
        << error;

    TraceArenaCache second(1ull << 30);
    second.setCacheDir(dir.path());
    const auto arena = second.acquire(wl, smallParams(), 44, 1500);
    EXPECT_EQ(second.stats().diskLoads, 0u);
    EXPECT_EQ(second.stats().recordings, 1u);
    ArenaReplaySource replay(arena);
    SyntheticGenerator gen(wl, smallParams(), 44);
    for (int i = 0; i < 1500; ++i)
        ASSERT_TRUE(sameAccess(nextAccess(replay), nextAccess(gen)));
}

// --- System-level equivalence ---------------------------------------

TEST(ArenaSystemTest, ArenaRunMatchesDirectRun)
{
    // The global cache instance is what System consults; these runs
    // are tiny, so residency is negligible.
    SystemConfig arena_config = tinyConfig();
    arena_config.accessesPerCore = 5000;
    const SystemConfig direct_config = generatorSourced(arena_config);

    for (const OrgKind kind :
         {OrgKind::Cameo, OrgKind::TlmOracle, OrgKind::AlloyCache}) {
        const WorkloadProfile &wl = *findWorkload("soplex");
        const RunResult direct = runWorkload(direct_config, kind, wl);
        const RunResult arena = runWorkload(arena_config, kind, wl);
        EXPECT_EQ(arena.execTime, direct.execTime);
        EXPECT_EQ(arena.instructions, direct.instructions);
        EXPECT_EQ(arena.l3Hits, direct.l3Hits);
        EXPECT_EQ(arena.l3Misses, direct.l3Misses);
        EXPECT_EQ(arena.stackedBytes, direct.stackedBytes);
        EXPECT_EQ(arena.offchipBytes, direct.offchipBytes);
        EXPECT_EQ(arena.majorFaults, direct.majorFaults);
        EXPECT_EQ(arena.llpCases, direct.llpCases);
        EXPECT_EQ(arena.pageMigrations, direct.pageMigrations);
    }
}

TEST(ArenaSystemTest, WarmupRunsMatchWithAndWithoutArena)
{
    SystemConfig arena_config = tinyConfig();
    arena_config.accessesPerCore = 4000;
    arena_config.warmupAccessesPerCore = 1500;
    const SystemConfig direct_config = generatorSourced(arena_config);

    const WorkloadProfile &wl = *findWorkload("milc");
    for (const OrgKind kind : {OrgKind::Cameo, OrgKind::TlmOracle}) {
        const RunResult direct = runWorkload(direct_config, kind, wl);
        const RunResult arena = runWorkload(arena_config, kind, wl);
        EXPECT_EQ(arena.execTime, direct.execTime);
        EXPECT_EQ(arena.l3Misses, direct.l3Misses);
        EXPECT_EQ(arena.stackedBytes, direct.stackedBytes);
        EXPECT_EQ(arena.offchipBytes, direct.offchipBytes);
        EXPECT_EQ(arena.llpCases, direct.llpCases);
    }
}

TEST(ArenaSystemTest, WarmupChangesMeasuredWindow)
{
    // Sanity: warmup is not a no-op — the measured stream actually
    // starts later.
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 4000;
    const WorkloadProfile &wl = *findWorkload("mcf");
    const RunResult cold = runWorkload(config, OrgKind::Cameo, wl);
    config.warmupAccessesPerCore = 2000;
    const RunResult warm = runWorkload(config, OrgKind::Cameo, wl);
    EXPECT_EQ(cold.accesses, warm.accesses);
    EXPECT_NE(cold.execTime, warm.execTime);
}

TEST(ArenaSweepTest, ComparisonRowsIdenticalWithAndWithoutArena)
{
    // The sweep shape where replay does something the generator does
    // not: a Skip-policy warmup prefix (replay jumps it through the
    // packed checkpoint table, the generator discards it record by
    // record) and two TLM-Oracle points whose off-chip capacities
    // differ but whose streams, and so arenas, are the same.
    SystemConfig base = tinyConfig();
    base.accessesPerCore = 4000;
    base.warmupAccessesPerCore = 2000;
    base.warmupPolicy = WarmupPolicy::Skip;
    SystemConfig larger_offchip = base;
    larger_offchip.offchipBytes = 1 << 20;
    const std::vector<WorkloadProfile> workloads = {
        *findWorkload("mcf"), *findWorkload("milc")};
    const std::vector<DesignPoint> arena_points{
        {"baseline", OrgKind::Baseline, base},
        {"cameo", OrgKind::Cameo, base},
        {"oracle", OrgKind::TlmOracle, base},
        {"oracle-1MB", OrgKind::TlmOracle, larger_offchip}};
    std::vector<DesignPoint> direct_points = arena_points;
    for (DesignPoint &point : direct_points)
        point.config = generatorSourced(point.config);

    SweepOptions with_arena;
    with_arena.jobs = 2;
    SweepOptions without_arena;
    without_arena.jobs = 1;

    const ResultMatrix arena = runMatrix(arena_points, workloads, with_arena);
    const ResultMatrix direct =
        runMatrix(direct_points, workloads, without_arena);
    ASSERT_EQ(arena.runs.size(), workloads.size() * arena_points.size());
    ASSERT_EQ(arena.runs.size(), direct.runs.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t p = 0; p < arena_points.size(); ++p) {
            snaptest::expectSameResult(direct.at(p, w), arena.at(p, w),
                                       workloads[w].name + "/" +
                                           arena_points[p].label);
        }
    }
}

} // namespace
} // namespace cameo
