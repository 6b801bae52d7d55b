/**
 * @file
 * Advisory cross-process file lock with stale-lock recovery.
 *
 * Serializes expensive produce-or-load work on shared cache files
 * (trace arenas) across *processes*: without it, N fleet workers
 * missing the same key all record the full artifact and race on the
 * final rename — correct (rename is atomic) but N times the work. The
 * protocol is lock -> re-check the cache file -> produce or load ->
 * unlink.
 *
 * The lock file is created with O_CREAT|O_EXCL and holds the owner's
 * PID. Waiters poll; a lock whose owner PID no longer exists (checked
 * with kill(pid, 0)) is broken immediately, and any lock is broken
 * after a bounded total wait, so a crashed or wedged owner can stall a
 * fleet only for the timeout, never forever. The lock is advisory:
 * when the lock file cannot even be created (read-only directory),
 * acquire() degrades to an unheld lock and callers proceed unlocked —
 * exactly the pre-lock behaviour, duplicated work included.
 */

#ifndef CAMEO_UTIL_FS_LOCK_HH
#define CAMEO_UTIL_FS_LOCK_HH

#include <string>

namespace cameo
{

/** Held advisory lock; releases (unlinks) on destruction. */
class FileLock
{
  public:
    /** An unheld lock. */
    FileLock() = default;

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;
    FileLock(FileLock &&other) noexcept;
    FileLock &operator=(FileLock &&other) noexcept;
    ~FileLock();

    /**
     * Acquire the lock file at @p path, waiting for a live owner to
     * release it. A dead owner's lock is broken immediately; any
     * owner's lock is broken after @p stale_timeout_ms of waiting.
     * Returns an unheld lock only when the file cannot be created at
     * all (callers then proceed unlocked — the lock is advisory).
     */
    static FileLock acquire(const std::string &path,
                            unsigned stale_timeout_ms = 30'000);

    /** True when this object owns the lock file. */
    bool held() const { return !path_.empty(); }

    /** Unlink the lock file (idempotent). */
    void release();

  private:
    explicit FileLock(std::string path) : path_(std::move(path)) {}

    std::string path_;
};

} // namespace cameo

#endif // CAMEO_UTIL_FS_LOCK_HH
