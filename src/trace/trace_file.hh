/**
 * @file
 * Binary trace file formats: record synthetic (or external) access
 * streams to disk and replay them as an AccessSource.
 *
 * Two on-disk formats share the "CAMEOTRC" magic:
 *
 * Version 1 (raw, fixed-width little-endian):
 *   header:  magic (8B), version u32, record count u64, reserved u32
 *   records: pc u64, vaddr u64, gapInstructions u32,
 *            flags u8 (bit0 = write, bit1 = dependsOnPrev), pad u8[3]
 *   Deliberately dumb — 24 bytes per record, no compression — so
 *   external tools (Pin/DynamoRIO frontends, gem5 probes) can emit it
 *   with a dozen lines of code.
 *
 * Version 2 (packed, see packed_trace.hh):
 *   header:  magic (8B), version u32, record count u64, payload bytes
 *            u64, checkpoint count u32, checkpoint interval u32, meta
 *            length u32, reserved u32
 *   body:    meta string, checkpoint table (3 x u64 each), packed
 *            payload
 *   ~5-9 bytes per record; the trace-arena cache persists arenas in
 *   this format with its cache key as the meta string.
 *
 * TraceReader replays either version from an mmap of the file (the
 * build is POSIX-only, so there is no buffered fallback):
 *   - v1: records decode straight out of the mapping (no load pass, no
 *     resident copy);
 *   - v2: the packed payload is replayed zero-copy through a
 *     PackedTraceCursor (only the small checkpoint table is copied,
 *     sidestepping alignment hazards).
 * Malformed files of either version fail with a message naming the
 * file, the byte offset, and what was expected versus found.
 */

#ifndef CAMEO_TRACE_TRACE_FILE_HH
#define CAMEO_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/access.hh"
#include "trace/access_source.hh"
#include "trace/packed_trace.hh"

namespace cameo
{

class MmapFile;

/** Magic bytes identifying a CAMEO trace file. */
inline constexpr char kTraceMagic[8] = {'C', 'A', 'M', 'E',
                                        'O', 'T', 'R', 'C'};

/** On-disk layout (doubles as the version number). */
enum class TraceFormat : std::uint32_t
{
    Raw = 1,    ///< Fixed 24-byte records.
    Packed = 2, ///< Delta/varint records + checkpoint table.
};

/** Newest version this build writes. */
inline constexpr std::uint32_t kTraceVersion = 2;

/** Streams Access records into a trace file. */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing; truncates. Raw traces stream records
     * and patch the header's count on close(); Packed traces buffer
     * in a PackedTraceEncoder and write everything on close(). Either
     * way a writer must be closed (or destroyed) for the file to be
     * valid. @p meta is stored in the file (Packed only).
     */
    explicit TraceWriter(const std::string &path,
                         TraceFormat format = TraceFormat::Raw,
                         std::string meta = "");

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void append(const Access &access);

    /** Finalize the header and close the file. Idempotent. */
    void close();

    /** True if the file opened (and, after close(), wrote) cleanly. */
    bool good() const { return good_; }

    std::uint64_t recordsWritten() const { return count_; }

  private:
    std::ofstream out_;
    TraceFormat format_;
    std::string meta_;
    PackedTraceEncoder encoder_;
    std::uint64_t count_ = 0;
    bool good_ = false;
    bool closed_ = false;
};

/**
 * Replays a trace file of either format as an AccessSource. Wraps
 * around when exhausted; skip() fast-forwards without materializing
 * records (O(1) for raw traces, checkpoint-bounded for packed ones).
 */
class TraceReader : public AccessSource
{
  public:
    /**
     * Map @p path. Throws std::runtime_error on unreadable or
     * malformed files with a message naming the file, offset, and
     * expected-vs-found detail.
     */
    explicit TraceReader(const std::string &path);

    ~TraceReader();

    /** Copy the next @p n records (wrapping) into @p buf. */
    void refill(Access *buf, std::size_t n) override;

    /** Advance @p n records without delivering them. */
    void skip(std::uint64_t n) override;

    std::uint64_t size() const { return count_; }

    /** Restart from the first record. */
    void rewind();

    TraceFormat format() const { return format_; }

    /** Meta string stored in the file (Packed format; else empty). */
    const std::string &meta() const { return meta_; }

  private:
    TraceFormat format_ = TraceFormat::Raw;
    std::uint64_t count_ = 0;
    std::string meta_;
    std::shared_ptr<MmapFile> map_;

    // Raw traces: a pointer into the mapping plus a record cursor.
    const std::uint8_t *rawBase_ = nullptr;
    std::uint64_t cursor_ = 0;

    // Packed traces: the mapped payload (with the checkpoint table
    // copied out) plus a decode cursor.
    std::vector<TraceCheckpoint> checkpoints_;
    PackedTraceView view_;
    std::optional<PackedTraceCursor> packedCursor_;
};

/**
 * A version-2 packed trace pulled from disk: the mapping, a view over
 * its payload, and the embedded meta string. Used by the trace-arena
 * cache, which wants graceful fallback on corrupt files instead of
 * TraceReader's exceptions.
 */
struct PackedTraceFile
{
    std::shared_ptr<MmapFile> map;
    std::vector<TraceCheckpoint> checkpoints;
    PackedTraceView view;
    std::string meta;
};

/**
 * Write @p view (with @p meta) to @p path as a version-2 trace file.
 * Returns false and fills @p error on I/O failure.
 */
bool writePackedTraceFile(const std::string &path,
                          const PackedTraceView &view,
                          const std::string &meta, std::string *error);

/**
 * Map a version-2 trace file into @p out. Returns false and fills
 * @p error on any failure, including validation of the packed payload.
 */
bool loadPackedTraceFile(const std::string &path, PackedTraceFile *out,
                         std::string *error);

/**
 * Record @p count accesses from @p source into @p path.
 * @return Records written, or 0 on I/O failure.
 */
std::uint64_t recordTrace(AccessSource &source, const std::string &path,
                          std::uint64_t count,
                          TraceFormat format = TraceFormat::Raw);

} // namespace cameo

#endif // CAMEO_TRACE_TRACE_FILE_HH
