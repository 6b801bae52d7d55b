/**
 * @file
 * Trace arenas: record a workload's deterministic access stream once,
 * replay it everywhere.
 *
 * A sweep (9 organizations x N config points) consumes the synthetic
 * generator's stream for the *same* (profile, params, seed) dozens of
 * times, and TLM-Oracle consumes it twice per job (page-heat pre-pass
 * + run). Since the stream is deterministic given those inputs, the
 * process-wide TraceArenaCache materializes it exactly once into a
 * packed arena (see packed_trace.hh, ~5-9 bytes/record vs the 24-byte
 * in-memory Access) and every job replays it through an
 * ArenaReplaySource whose refill() is a branch-light unpack loop. This
 * is the only path by which a System gets a synthetic stream, as the
 * paper replays one recorded trace per workload for every design.
 *
 * Replay is bit-identical to a fresh generator by construction — the
 * arena *is* the generator's output (property-tested in
 * test_trace_arena.cc).
 *
 * Memory policy: the cache is capped (CAMEO_TRACE_ARENA_MB, strict
 * parse, default 512); when inserting an arena pushes the resident
 * total over the cap, least-recently-acquired arenas are evicted.
 * Live ArenaReplaySources keep their arena alive via shared_ptr, so
 * eviction only drops the cache's reference. A cap of 0 keeps nothing
 * resident: every arena lives exactly as long as its replay sources.
 *
 * Persistence: with a cache directory set (--trace-cache-dir or
 * CAMEO_TRACE_CACHE_DIR), recorded arenas are written as version-2
 * packed trace files and mmap'd back on the next run, so repeated
 * sweeps skip recording entirely. Files embed the full cache key and
 * are re-recorded on any mismatch, so stale files can only cost time,
 * never correctness.
 */

#ifndef CAMEO_TRACE_TRACE_ARENA_HH
#define CAMEO_TRACE_TRACE_ARENA_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "trace/access_source.hh"
#include "trace/generator.hh"
#include "trace/packed_trace.hh"
#include "trace/workloads.hh"

namespace cameo
{

class MmapFile;

/**
 * One immutable recorded stream. Owns either an in-memory PackedTrace
 * (recorded this run) or an mmap'd trace file (loaded from the cache
 * directory); either way view() exposes the packed payload without
 * copying it again.
 */
class TraceArena
{
  public:
    /** Record @p count records from a fresh generator. */
    static std::shared_ptr<const TraceArena>
    record(const WorkloadProfile &profile, const GeneratorParams &params,
           std::uint64_t seed, std::uint64_t count);

    /** Wrap an already-packed stream. */
    static std::shared_ptr<const TraceArena> fromPacked(PackedTrace packed);

    /**
     * Load a persisted arena, mmap-backed. Returns nullptr (with
     * @p error set) when the file is missing, corrupt, or its embedded
     * key differs from @p expected_key — callers then fall back to
     * recording.
     */
    static std::shared_ptr<const TraceArena>
    fromFile(const std::string &path, const std::string &expected_key,
             std::string *error);

    PackedTraceView view() const { return view_; }
    std::uint64_t records() const { return view_.count; }

    /** Bytes charged against the cache cap (payload + checkpoints). */
    std::uint64_t memoryBytes() const { return memoryBytes_; }

    /** True when the payload is served from an mmap'd file. */
    bool mapped() const { return map_ != nullptr; }

  private:
    TraceArena() = default;

    PackedTrace packed_;               ///< Storage when recorded.
    std::shared_ptr<MmapFile> map_;    ///< Storage when mmap-loaded.
    std::vector<TraceCheckpoint> checkpoints_; ///< Copied in mmap mode.
    PackedTraceView view_;
    std::uint64_t memoryBytes_ = 0;
};

/**
 * AccessSource replaying an arena from the start. Each source has its
 * own cursor, so any number of cores/jobs can replay one arena
 * concurrently; the shared_ptr keeps the arena alive past eviction.
 */
class ArenaReplaySource : public AccessSource
{
  public:
    explicit ArenaReplaySource(std::shared_ptr<const TraceArena> arena)
        : arena_(std::move(arena)), cursor_(arena_->view())
    {
    }

    void refill(Access *buf, std::size_t n) override
    {
        cursor_.refill(buf, n);
    }

    /** Checkpoint-accelerated fast-forward (see PackedTraceCursor). */
    void skip(std::uint64_t n) override { cursor_.skip(n); }

    const TraceArena &arena() const { return *arena_; }

  private:
    std::shared_ptr<const TraceArena> arena_;
    PackedTraceCursor cursor_;
};

/** Observability counters for the process-wide cache. */
struct TraceArenaStats
{
    std::uint64_t hits = 0;       ///< acquire() found a resident arena.
    std::uint64_t misses = 0;     ///< acquire() had to materialize.
    std::uint64_t recordings = 0; ///< Misses served by running the generator.
    std::uint64_t diskLoads = 0;  ///< Misses served from the cache dir.
    std::uint64_t evictions = 0;  ///< Arenas dropped for the memory cap.
    std::uint64_t residentBytes = 0; ///< Current charged total.
};

/**
 * Process-wide, thread-safe arena cache. Keyed by everything that
 * shapes the stream: profile fields + generator params + seed + record
 * count (keyOf()). Concurrent first touches of one key are collapsed
 * onto a single recording via a shared future, so a jobs=8 sweep
 * records each workload exactly once no matter who gets there first.
 */
class TraceArenaCache
{
  public:
    /** @p cap_bytes = 0 keeps nothing resident once built: a later
     *  acquire() of the same stream records (or loads) it again. */
    explicit TraceArenaCache(std::uint64_t cap_bytes);

    /**
     * The process-wide instance. Cap from CAMEO_TRACE_ARENA_MB (strict
     * parse; malformed values warn and fall back to the 512MB
     * default), cache directory from CAMEO_TRACE_CACHE_DIR when set.
     */
    static TraceArenaCache &instance();

    /**
     * The cap for @p mb megabytes, in bytes; nullopt when that byte
     * count does not fit in 64 bits (mb > UINT64_MAX >> 20).
     */
    static std::optional<std::uint64_t> capBytesFromMb(std::uint64_t mb);

    /**
     * The arena for (profile, params, seed) holding @p count records.
     * First caller records (or loads from the cache directory); every
     * concurrent and later caller shares the result. Throws only if
     * recording itself throws (allocation failure).
     */
    std::shared_ptr<const TraceArena>
    acquire(const WorkloadProfile &profile, const GeneratorParams &params,
            std::uint64_t seed, std::uint64_t count);

    /**
     * An ArenaReplaySource over acquire()'s arena: the one sanctioned
     * way to build a synthetic workload stream.
     */
    std::unique_ptr<AccessSource>
    source(const WorkloadProfile &profile, const GeneratorParams &params,
           std::uint64_t seed, std::uint64_t count);

    /** Set (or clear, with "") the persistence directory. */
    void setCacheDir(std::string dir);
    std::string cacheDir() const;

    /** Drop every resident arena (not the stats). */
    void clear();

    TraceArenaStats stats() const;

    /** The canonical cache key (also embedded in persisted files). */
    static std::string keyOf(const WorkloadProfile &profile,
                             const GeneratorParams &params,
                             std::uint64_t seed, std::uint64_t count);

  private:
    using ArenaFuture =
        std::shared_future<std::shared_ptr<const TraceArena>>;

    struct Entry
    {
        ArenaFuture future;
        std::uint64_t bytes = 0;   ///< 0 until the build finishes.
        std::uint64_t lastUse = 0; ///< LRU clock at last acquire().
        bool ready = false;
    };

    /** Evict ready LRU entries until residentBytes_ <= capBytes_.
     *  Caller holds mutex_. */
    void evictOverCap();

    std::string diskPathFor(const std::string &key) const;

    const std::uint64_t capBytes_;

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    std::string cacheDir_;
    std::uint64_t useClock_ = 0;
    TraceArenaStats stats_;
};

} // namespace cameo

#endif // CAMEO_TRACE_TRACE_ARENA_HH
