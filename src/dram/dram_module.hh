/**
 * @file
 * DramModule: the timing and bandwidth model of one DRAM device
 * (stacked or off-chip).
 *
 * The model is resource-reservation based: each access computes its
 * completion time from the target bank's row-buffer state and the
 * channel bus occupancy, then reserves those resources. This captures
 * the two effects the paper's evaluation depends on — access latency
 * under row-buffer locality, and bandwidth saturation when a design
 * moves too much data (TLM-Dynamic's page swaps, LLP's wasted parallel
 * fetches) — without a full command-level controller.
 *
 * Requests whose arrival times are slightly out of order (cores advance
 * local clocks independently) are tolerated: reservation times are
 * monotone per resource, so a late-arriving earlier request simply
 * queues behind the reservation.
 *
 * Two timing modes (DESIGN.md §9): Blocking reproduces the original
 * semantics (posted half-burst writes, immediate read reservation);
 * Queued adds per-channel controller queues — a bounded in-service
 * read window that stalls arrivals when full, and a write buffer
 * drained in FR-FCFS row-batched bursts that occupy real bank and bus
 * time, so write pressure steals read bandwidth.
 */

#ifndef CAMEO_DRAM_DRAM_MODULE_HH
#define CAMEO_DRAM_DRAM_MODULE_HH

#include <deque>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "dram/address_map.hh"
#include "snapshot/snapshot.hh"
#include "dram/bank.hh"
#include "dram/channel.hh"
#include "dram/queue_config.hh"
#include "dram/timings.hh"
#if CAMEO_AUDIT_ENABLED
#include "check/dram_protocol_auditor.hh"
#endif
#include "stats/counter.hh"
#include "stats/distribution.hh"
#include "stats/registry.hh"
#include "util/types.hh"

namespace cameo
{

/** Timing and bandwidth model of a single DRAM device. */
class DramModule
{
  public:
    /**
     * @param name           Stat prefix, e.g. "dram.stacked".
     * @param timings        Geometry and timing parameters.
     * @param capacity_bytes Device capacity; accesses beyond it assert.
     */
    DramModule(std::string name, const DramTimings &timings,
               std::uint64_t capacity_bytes);

    DramModule(const DramModule &) = delete;
    DramModule &operator=(const DramModule &) = delete;

    /**
     * Service one device command through the active timing mode — the
     * module's only command entry point.
     *
     * Blocking mode posts writes at half-burst bus cost and reserves
     * bank/bus resources for reads immediately (blockingRequest).
     * Queued mode routes the command through the per-channel
     * controller queues: writes post into the write buffer (FR-FCFS
     * forced drains at the high watermark), reads stall behind a full
     * in-service window and then reserve bank/bus resources exactly as
     * Blocking reads do.
     *
     * @param now         Earliest time the command may issue.
     * @param device_line Line index within this device.
     * @param is_write    Write (writeback/fill) or read.
     * @param burst_bytes Data moved: 64 for a plain line, 80 for a
     *                    CAMEO LEAD or Alloy TAD burst.
     * @return Completion time: data arrival for reads, buffer
     *         acceptance (or forced-drain completion) for writes.
     */
    Tick request(Tick now, std::uint64_t device_line, bool is_write,
                 std::uint32_t burst_bytes = kLineBytes);

    /**
     * Select the timing mode. Queued mode allocates the per-channel
     * controller queues sized by @p queues. Must be called before
     * registerStats (queued-only statistics register conditionally so
     * blocking-mode dumps stay unchanged).
     */
    void setTimingMode(TimingMode mode, const DramQueueConfig &queues);

    TimingMode timingMode() const { return mode_; }
    const DramQueueConfig &queueConfig() const { return queueCfg_; }

    /**
     * Earliest time a read of @p device_line could begin service
     * (resource availability only; no state change). Used to decide
     * whether a speculative fetch can be squashed: if its verification
     * arrives before the request would leave the controller queue, it
     * never occupies the bus.
     */
    Tick earliestServiceStart(std::uint64_t device_line) const;

    /** Device capacity in 64-byte lines. */
    std::uint64_t capacityLines() const { return capacityLines_; }

    /** Device capacity in bytes. */
    std::uint64_t capacityBytes() const
    {
        return capacityLines_ * kLineBytes;
    }

    /** Total bytes moved on the buses so far (reads + writes). */
    std::uint64_t bytesTransferred() const
    {
        return readBytes_.value() + writeBytes_.value();
    }

    const DramTimings &timings() const { return timings_; }
    const DramAddressMap &addressMap() const { return map_; }
    const std::string &name() const { return name_; }

    /**
     * Unloaded read latency for @p burst_bytes with a closed row — the
     * analytic "latency unit" used by the Figure 8 bench.
     */
    Tick idleLatency(std::uint32_t burst_bytes = kLineBytes) const
    {
        return timings_.idleLatency(burst_bytes);
    }

    /** Register this module's counters with @p registry. */
    void registerStats(StatRegistry &registry);

    // Raw counters (also reachable via the registry).
    const Counter &reads() const { return reads_; }
    const Counter &writes() const { return writes_; }
    const Counter &readBytes() const { return readBytes_; }
    const Counter &writeBytes() const { return writeBytes_; }
    const Counter &rowHits() const { return rowHits_; }
    const Counter &rowClosed() const { return rowClosed_; }
    const Counter &rowConflicts() const { return rowConflicts_; }
    const Counter &refreshStalls() const { return refreshStalls_; }

    /** Distribution of read-access latencies (request to data). */
    const Distribution &readLatency() const { return readLatency_; }

    // Queued-mode statistics (zero / unregistered in blocking mode).
    const Counter &queueFullStalls() const { return queueFullStalls_; }
    const Counter &writeDrains() const { return writeDrains_; }
    const Counter &drainedWrites() const { return drainedWrites_; }
    const Distribution &readQueueDepth() const { return readQueueDepth_; }
    const Distribution &writeQueueDepth() const
    {
        return writeQueueDepth_;
    }
    const Distribution &busBytesPerWindow() const
    {
        return busBytesPerWindow_;
    }

    /** Bandwidth-sample window for busBytesPerWindow (CPU cycles). */
    static constexpr Tick kBandwidthWindow = 8192;

    /** Reset dynamic state (row buffers, reservations) and counters. */
    void reset();

    /**
     * Checkpoint the device's dynamic timing state: per-bank row
     * buffers and reservations, per-channel bus reservations, the
     * queued-mode controller queues, and the bandwidth-window
     * accumulator. Counters and distributions are NOT written here —
     * they are registered statistics and travel in the System's stats
     * section. Geometry and mode are structural (construction-time):
     * restore() verifies them and flags @p r on mismatch. The protocol
     * auditor's shadow state is resynchronized from the restored row
     * buffers.
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    /** One buffered (posted) write awaiting drain. */
    struct QueuedWrite
    {
        std::uint64_t line;
        std::uint32_t burstBytes;
    };

    /** Queued-mode controller state of one channel. */
    struct QueuedChannel
    {
        /** Completion ticks of in-service reads (bus-serialized, so
         *  nondecreasing; the front is the oldest). */
        std::deque<Tick> inServiceReads;

        /** Posted writes awaiting an FR-FCFS drain. */
        std::vector<QueuedWrite> writeQueue;
    };

    /**
     * Reserve bank + bus for one data-moving command starting no
     * earlier than @p earliest: refresh window, row-buffer outcome
     * (hit / closed / conflict), then the channel-bus burst. This is
     * the timing kernel shared by the blocking read path and every
     * queued-mode command; it updates the row-outcome and refresh
     * counters and feeds the protocol auditor.
     *
     * @return Completion time (data fully transferred).
     */
    Tick serviceCommand(Tick earliest, const DramCoord &coord,
                        std::uint32_t burst_bytes);

    /**
     * Blocking-mode service of one command: a write is posted at
     * half-burst bus cost and never touches a bank; a read reserves
     * bank/bus resources immediately. The golden-stats reference
     * semantics (DESIGN.md §9).
     */
    Tick blockingRequest(Tick now, std::uint64_t device_line,
                         bool is_write, std::uint32_t burst_bytes);

    /** Queued-mode service of one read or posted write. */
    Tick queuedRequest(Tick now, std::uint64_t device_line, bool is_write,
                       std::uint32_t burst_bytes);

    /**
     * FR-FCFS drain of @p chan_idx's write buffer down to @p target
     * entries, starting at @p now. Row hits to currently open rows
     * drain first; ties fall back to arrival order.
     *
     * @return Completion time of the last drained write.
     */
    Tick drainWrites(Tick now, std::uint32_t chan_idx, std::size_t target);

    /** Accumulate @p bytes finishing at @p done into the bandwidth
     *  window distribution (queued mode only). */
    void recordBandwidth(Tick done, std::uint32_t bytes);
    /** Data-transfer time for @p bytes using the constants cached at
     *  construction (equal to timings_.burstCycles, division-free). */
    Tick burstCyclesFast(std::uint32_t bytes) const
    {
        const std::uint32_t beats =
            beatShift_ >= 0
                ? (bytes + bytesPerBeat_ - 1) >> beatShift_
                : (bytes + bytesPerBeat_ - 1) / bytesPerBeat_;
        return static_cast<Tick>(beats) * cyclesPerBeat_;
    }

    std::string name_;
    DramTimings timings_;
    DramAddressMap map_;
    std::uint64_t capacityLines_;
    std::vector<Channel> channels_;

    TimingMode mode_ = TimingMode::Blocking;
    DramQueueConfig queueCfg_;
    std::vector<QueuedChannel> queued_;

    /** Bandwidth-window accumulator (queued mode). */
    Tick bandwidthWindowStart_ = 0;
    std::uint64_t bandwidthWindowBytes_ = 0;

    // Per-access timing constants, derived from timings_ once so the
    // hot path never re-divides clock ratios.
    Tick casCyc_;
    Tick rcdCyc_;
    Tick rpCyc_;
    Tick rasCyc_;
    Tick refiCyc_;
    Tick rfcCyc_;
    std::uint32_t bytesPerBeat_;
    std::uint32_t cyclesPerBeat_;
    std::int32_t beatShift_;

#if CAMEO_AUDIT_ENABLED
    /** Shadow protocol checker fed with every read's implied commands. */
    DramProtocolAuditor protoAudit_;
#endif

    Counter reads_;
    Counter writes_;
    Counter readBytes_;
    Counter writeBytes_;
    Counter rowHits_;
    Counter rowClosed_;
    Counter rowConflicts_;
    Counter refreshStalls_;
    Distribution readLatency_;

    // Queued-mode statistics (registered only when mode_ == Queued).
    Counter queueFullStalls_;
    Counter writeDrains_;
    Counter drainedWrites_;
    Distribution readQueueDepth_;
    Distribution writeQueueDepth_;
    Distribution busBytesPerWindow_;
};

} // namespace cameo

#endif // CAMEO_DRAM_DRAM_MODULE_HH
