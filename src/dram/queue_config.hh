/**
 * @file
 * DramQueueConfig: the controller-queue knobs of the queued timing
 * mode (TimingMode::Queued).
 *
 * Each channel owns a bounded window of in-service reads and a write
 * buffer drained in FR-FCFS row-batched bursts. The defaults follow
 * the usual DDR3-era controller proportions: a 16-entry read window
 * (two requests per bank at Table I's 8-bank granularity of the scaled
 * system), a 32-entry write buffer with a high-water drain at 24 that
 * empties down to 8 so writes amortize their bus turnarounds.
 */

#ifndef CAMEO_DRAM_QUEUE_CONFIG_HH
#define CAMEO_DRAM_QUEUE_CONFIG_HH

#include <cstdint>

namespace cameo
{

/** Per-channel controller-queue parameters for queued timing. */
struct DramQueueConfig
{
    /** In-service reads a channel sustains before arrivals stall. */
    std::uint32_t readWindow = 16;

    /** Write-buffer capacity (writes are posted until drained). */
    std::uint32_t writeQueueDepth = 32;

    /** Buffered writes that trigger a forced drain. */
    std::uint32_t drainHighWatermark = 24;

    /** Drain target: a forced drain empties down to this depth. */
    std::uint32_t drainLowWatermark = 8;

    friend bool operator==(const DramQueueConfig &,
                           const DramQueueConfig &) = default;
};

} // namespace cameo

#endif // CAMEO_DRAM_QUEUE_CONFIG_HH
