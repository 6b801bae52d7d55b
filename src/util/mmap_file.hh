/**
 * @file
 * Read-only memory-mapped file wrapper for zero-copy trace replay.
 *
 * Trace files can be hundreds of megabytes; loading them into a
 * std::vector both doubles peak memory and costs a full copy before
 * the first record replays. MmapFile maps the file instead, so replay
 * reads page directly from the OS page cache and multiple concurrent
 * processes replaying the same trace share one physical copy.
 *
 * The build is POSIX-only (util/fs_lock.cc and shard/fleet.cc need
 * <unistd.h> too), so every trace file is read through a mapping.
 */

#ifndef CAMEO_UTIL_MMAP_FILE_HH
#define CAMEO_UTIL_MMAP_FILE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace cameo
{

/** A read-only memory mapping of a whole file. */
class MmapFile
{
  public:
    /**
     * Map @p path read-only. On any failure (missing file, empty file,
     * mmap error) the object is constructed with valid() == false; the
     * failure reason is available via error().
     */
    explicit MmapFile(const std::string &path);

    ~MmapFile();

    MmapFile(const MmapFile &) = delete;
    MmapFile &operator=(const MmapFile &) = delete;

    /** True when the mapping is live and data()/size() are usable. */
    bool valid() const { return data_ != nullptr; }

    /** First mapped byte; nullptr when !valid(). */
    const std::uint8_t *data() const { return data_; }

    /** Mapped length in bytes; 0 when !valid(). */
    std::size_t size() const { return size_; }

    /** Human-readable failure reason when !valid(). */
    const std::string &error() const { return error_; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::string error_;
};

} // namespace cameo

#endif // CAMEO_UTIL_MMAP_FILE_HH
