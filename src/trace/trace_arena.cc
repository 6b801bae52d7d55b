#include "trace/trace_arena.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "trace/trace_file.hh"
#include "util/bitops.hh"
#include "util/env.hh"
#include "util/fs_lock.hh"
#include "util/mmap_file.hh"

namespace cameo
{

namespace
{

/** Default cache cap when CAMEO_TRACE_ARENA_MB is unset. */
constexpr std::uint64_t kDefaultCapMb = 512;

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::shared_ptr<const TraceArena>
TraceArena::record(const WorkloadProfile &profile,
                   const GeneratorParams &params, std::uint64_t seed,
                   std::uint64_t count)
{
    SyntheticGenerator generator(profile, params, seed);
    PackedTraceEncoder encoder;
    std::array<Access, 1024> chunk;
    std::uint64_t left = count;
    while (left > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, chunk.size()));
        generator.refill(chunk.data(), n);
        encoder.append(chunk.data(), n);
        left -= n;
    }
    return fromPacked(encoder.take());
}

std::shared_ptr<const TraceArena>
TraceArena::fromPacked(PackedTrace packed)
{
    auto arena = std::shared_ptr<TraceArena>(new TraceArena());
    arena->packed_ = std::move(packed);
    arena->view_ = arena->packed_.view();
    arena->memoryBytes_ = arena->packed_.memoryBytes();
    return arena;
}

std::shared_ptr<const TraceArena>
TraceArena::fromFile(const std::string &path,
                     const std::string &expected_key, std::string *error)
{
    PackedTraceFile file;
    if (!loadPackedTraceFile(path, &file, error))
        return nullptr;
    if (file.meta != expected_key) {
        if (error != nullptr) {
            *error = "trace file " + path +
                     ": embedded key does not match (stale or foreign "
                     "arena file); expected \"" +
                     expected_key + "\", found \"" + file.meta + "\"";
        }
        return nullptr;
    }
    auto arena = std::shared_ptr<TraceArena>(new TraceArena());
    arena->map_ = std::move(file.map);
    arena->checkpoints_ = std::move(file.checkpoints);
    arena->view_ = PackedTraceView{
        file.view.bytes, file.view.byteSize, arena->checkpoints_.data(),
        arena->checkpoints_.size(), file.view.count};
    arena->memoryBytes_ =
        arena->view_.byteSize +
        arena->view_.numCheckpoints * sizeof(TraceCheckpoint);
    return arena;
}

TraceArenaCache::TraceArenaCache(std::uint64_t cap_bytes)
    : capBytes_(cap_bytes)
{
}

namespace
{

std::uint64_t
envCapBytes()
{
    std::string error;
    std::optional<std::uint64_t> cap;
    if (const auto mb = envUint("CAMEO_TRACE_ARENA_MB", &error)) {
        cap = TraceArenaCache::capBytesFromMb(*mb);
        if (!cap) {
            error = "CAMEO_TRACE_ARENA_MB: value out of range: '" +
                    std::to_string(*mb) + "'";
        }
    }
    if (!error.empty()) {
        std::fprintf(stderr, "warning: %s; using default %llu MB\n",
                     error.c_str(),
                     static_cast<unsigned long long>(kDefaultCapMb));
    }
    return cap.value_or(kDefaultCapMb << 20);
}

} // namespace

std::optional<std::uint64_t>
TraceArenaCache::capBytesFromMb(std::uint64_t mb)
{
    if (mb > std::numeric_limits<std::uint64_t>::max() >> 20)
        return std::nullopt;
    return mb << 20;
}

TraceArenaCache &
TraceArenaCache::instance()
{
    static TraceArenaCache cache(envCapBytes());
    static const bool dir_init = [] {
        if (const char *dir = std::getenv("CAMEO_TRACE_CACHE_DIR");
            dir != nullptr && dir[0] != '\0') {
            cache.setCacheDir(dir);
        }
        return true;
    }();
    (void)dir_init;
    return cache;
}

std::string
TraceArenaCache::keyOf(const WorkloadProfile &profile,
                       const GeneratorParams &params, std::uint64_t seed,
                       std::uint64_t count)
{
    // Every field that shapes the stream, in fixed order. Doubles use
    // %.17g so distinct values never collide after formatting.
    std::string key;
    key.reserve(256);
    key += profile.name;
    key += '|';
    key += formatDouble(profile.streamFrac) + '|';
    key += formatDouble(profile.pointerFrac) + '|';
    key += formatDouble(profile.hotFrac) + '|';
    key += std::to_string(profile.linesPerPage) + '|';
    key += formatDouble(profile.zipfExponent) + '|';
    key += formatDouble(profile.dependentFrac) + '|';
    key += formatDouble(profile.streamWindowFrac) + '|';
    key += std::to_string(profile.numStreams) + '|';
    key += formatDouble(profile.nearReuseFrac) + '|';
    key += formatDouble(profile.writeFrac) + '|';
    key += std::to_string(profile.streamPcs) + '|';
    key += std::to_string(profile.pointerPcs) + '|';
    key += std::to_string(profile.hotPcs) + '|';
    key += std::to_string(params.footprintBytes) + '|';
    key += std::to_string(params.hotSetBytes) + '|';
    key += formatDouble(params.gapMeanInstructions) + '|';
    key += std::to_string(seed) + '|';
    key += std::to_string(count);
    return key;
}

std::string
TraceArenaCache::diskPathFor(const std::string &key) const
{
    char name[40];
    std::snprintf(name, sizeof(name), "arena-%016llx.ctp",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return cacheDir_ + "/" + name;
}

std::shared_ptr<const TraceArena>
TraceArenaCache::acquire(const WorkloadProfile &profile,
                         const GeneratorParams &params, std::uint64_t seed,
                         std::uint64_t count)
{
    const std::string key = keyOf(profile, params, seed, count);

    ArenaFuture future;
    std::promise<std::shared_ptr<const TraceArena>> promise;
    std::string disk_path;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            it->second.lastUse = ++useClock_;
            future = it->second.future;
        } else {
            ++stats_.misses;
            builder = true;
            Entry entry;
            entry.future = promise.get_future().share();
            entry.lastUse = ++useClock_;
            future = entry.future;
            entries_.emplace(key, std::move(entry));
            if (!cacheDir_.empty())
                disk_path = diskPathFor(key);
        }
    }

    if (!builder)
        return future.get();

    // Build outside the lock: concurrent acquirers of *other* keys
    // record in parallel; acquirers of this key block on the future.
    std::shared_ptr<const TraceArena> arena;
    bool from_disk = false;
    // Held (when recording to disk) from the re-check until after the
    // final rename; released by the destructor on every exit path.
    FileLock disk_lock;
    try {
        if (!disk_path.empty()) {
            std::string error;
            arena = TraceArena::fromFile(disk_path, key, &error);
            if (arena == nullptr) {
                // Concurrent-recorder guard: without the lock, N
                // processes missing this key each record the full
                // arena before the atomic rename — correct but N
                // times the work. Lock, then re-check: the previous
                // holder usually recorded the file while we waited. A
                // crashed holder's lock is broken by PID liveness or
                // the stale timeout (util/fs_lock.hh).
                disk_lock = FileLock::acquire(disk_path + ".lock");
                arena = TraceArena::fromFile(disk_path, key, &error);
            }
            if (arena != nullptr)
                from_disk = true;
        }
        if (arena == nullptr) {
            arena = TraceArena::record(profile, params, seed, count);
            if (!disk_path.empty()) {
                // Best-effort persistence: write to a PID-unique temp
                // name, then atomically rename so concurrent processes
                // never see a half-written arena (the rename also
                // resolves any race left by a broken lock).
                const std::string tmp =
                    disk_path + ".tmp." + std::to_string(::getpid());
                std::string error;
                if (writePackedTraceFile(tmp, arena->view(), key,
                                         &error)) {
                    if (std::rename(tmp.c_str(), disk_path.c_str()) !=
                        0) {
                        std::remove(tmp.c_str());
                    }
                } else {
                    std::fprintf(stderr, "warning: %s\n", error.c_str());
                }
            }
        }
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.erase(key);
        throw;
    }

    promise.set_value(arena);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (from_disk)
            ++stats_.diskLoads;
        else
            ++stats_.recordings;
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.bytes = arena->memoryBytes();
            it->second.ready = true;
            stats_.residentBytes += arena->memoryBytes();
            evictOverCap();
        }
    }
    return arena;
}

void
TraceArenaCache::evictOverCap()
{
    while (stats_.residentBytes > capBytes_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.ready)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse) {
                victim = it;
            }
        }
        if (victim == entries_.end())
            return; // Nothing ready to evict (builds in flight).
        stats_.residentBytes -= victim->second.bytes;
        ++stats_.evictions;
        entries_.erase(victim);
    }
}

std::unique_ptr<AccessSource>
TraceArenaCache::source(const WorkloadProfile &profile,
                        const GeneratorParams &params, std::uint64_t seed,
                        std::uint64_t count)
{
    return std::make_unique<ArenaReplaySource>(
        acquire(profile, params, seed, count));
}

void
TraceArenaCache::setCacheDir(std::string dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "warning: cannot create trace cache directory "
                         "%s: %s\n",
                         dir.c_str(), ec.message().c_str());
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    cacheDir_ = std::move(dir);
}

std::string
TraceArenaCache::cacheDir() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cacheDir_;
}

void
TraceArenaCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    stats_.residentBytes = 0;
}

TraceArenaStats
TraceArenaCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace cameo
