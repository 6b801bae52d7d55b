/**
 * @file
 * AccessSource: the interface between a core and whatever produces its
 * access stream.
 *
 * The bundled SyntheticGenerator is one implementation; TraceReader
 * (trace_file.hh) replays recorded traces, which is how users with
 * real application traces (Pin, DynamoRIO, gem5) drive this simulator.
 *
 * The interface is batched: refill() produces a block of records per
 * virtual call, so the per-record cost on the simulation hot path is a
 * buffer read instead of a virtual dispatch (CpuCore keeps a small
 * ring it refills from; see system/cpu_core.hh). A one-record read is
 * a refill of length 1.
 */

#ifndef CAMEO_TRACE_ACCESS_SOURCE_HH
#define CAMEO_TRACE_ACCESS_SOURCE_HH

#include <cstddef>
#include <cstdint>

#include "trace/access.hh"

namespace cameo
{

/** Produces one core's access stream. */
class AccessSource
{
  public:
    virtual ~AccessSource() = default;

    /**
     * Produce the next @p n accesses into @p buf. Sources never
     * exhaust: finite sources (trace files) wrap around, which matches
     * the paper's rate-mode methodology of running fixed-length
     * representative slices. Record i+1 of a batch is defined to be
     * the record a second refill() call would have produced, so batch
     * boundaries never change the stream.
     */
    virtual void refill(Access *buf, std::size_t n) = 0;

    /**
     * Advance the stream @p n records without delivering them, as if
     * refill() had been called and the results discarded. Used for
     * warmup fast-forward and replay stagger. The default materializes
     * records into a scratch buffer in chunks; sources with cheaper
     * ways to advance (checkpointed arenas, fixed-record trace files)
     * override it.
     */
    virtual void skip(std::uint64_t n)
    {
        Access scratch[64];
        while (n > 0) {
            const std::size_t chunk =
                n < 64 ? static_cast<std::size_t>(n) : std::size_t{64};
            refill(scratch, chunk);
            n -= chunk;
        }
    }
};

} // namespace cameo

#endif // CAMEO_TRACE_ACCESS_SOURCE_HH
