#include "dram/dram_module.hh"

#include <algorithm>
#include <cassert>

namespace cameo
{

DramModule::DramModule(std::string name, const DramTimings &timings,
                       std::uint64_t capacity_bytes)
    : name_(std::move(name)), timings_(timings), map_(timings),
      capacityLines_(capacity_bytes / kLineBytes),
      casCyc_(timings.casCycles()), rcdCyc_(timings.rcdCycles()),
      rpCyc_(timings.rpCycles()), rasCyc_(timings.rasCycles()),
      refiCyc_(timings.refiCycles()), rfcCyc_(timings.rfcCycles()),
      bytesPerBeat_(timings.bytesPerBeat()),
      cyclesPerBeat_(timings.cpuCyclesPerBeat()),
      beatShift_(isPowerOfTwo(bytesPerBeat_)
                     ? static_cast<std::int32_t>(exactLog2(bytesPerBeat_))
                     : -1),
#if CAMEO_AUDIT_ENABLED
      protoAudit_(name_, timings.channels, timings.banksPerChannel,
                  DramProtocolParams{timings.rcdCycles(),
                                     timings.rasCycles(),
                                     timings.rpCycles()}),
#endif
      reads_(name_ + ".reads", "read accesses"),
      writes_(name_ + ".writes", "write accesses"),
      readBytes_(name_ + ".readBytes", "bytes moved by reads"),
      writeBytes_(name_ + ".writeBytes", "bytes moved by writes"),
      rowHits_(name_ + ".rowHits", "row-buffer hits"),
      rowClosed_(name_ + ".rowClosed", "accesses to a closed row"),
      rowConflicts_(name_ + ".rowConflicts", "row-buffer conflicts"),
      refreshStalls_(name_ + ".refreshStalls",
                     "reads delayed by an all-bank refresh"),
      readLatency_(name_ + ".readLatency",
                   "read latency from request to data (cycles)", 100, 64),
      queueFullStalls_(name_ + ".queueFullStalls",
                       "reads stalled by a full in-service window"),
      writeDrains_(name_ + ".writeDrains",
                   "write-buffer drain bursts (forced + idle-bus)"),
      drainedWrites_(name_ + ".drainedWrites",
                     "writes drained through the bank/bus model"),
      readQueueDepth_(name_ + ".readQueueDepth",
                      "in-service reads at each read arrival", 1, 64),
      writeQueueDepth_(name_ + ".writeQueueDepth",
                       "buffered writes at each write arrival", 1, 64),
      busBytesPerWindow_(name_ + ".busBytesPerWindow",
                         "bytes transferred per 8192-cycle window", 2048,
                         80)
{
    assert(capacity_bytes % kLineBytes == 0);
    channels_.reserve(timings_.channels);
    for (std::uint32_t c = 0; c < timings_.channels; ++c)
        channels_.emplace_back(timings_.banksPerChannel);
}

Tick
DramModule::request(Tick now, std::uint64_t device_line, bool is_write,
                    std::uint32_t burst_bytes)
{
    if (mode_ == TimingMode::Blocking)
        return blockingRequest(now, device_line, is_write, burst_bytes);
    return queuedRequest(now, device_line, is_write, burst_bytes);
}

Tick
DramModule::blockingRequest(Tick now, std::uint64_t device_line,
                            bool is_write, std::uint32_t burst_bytes)
{
    assert(device_line < capacityLines_ && "device address out of range");

    const DramCoord coord = map_.decode(device_line);

    if (is_write) {
        // Writes sit in the controller's write queue and are drained
        // in row-batched bursts during read-idle periods (read-
        // priority scheduling): their bank occupancy is hidden from
        // reads and back-to-back batching roughly doubles their
        // effective bus efficiency versus interleaved reads. They are
        // charged half a burst of shared-bus time; byte counters (the
        // Table IV figures) are exact.
        Channel &chan = channels_[coord.channel];
        const Tick start = std::max(now, chan.busReadyTick);
        const Tick burst = burstCyclesFast(burst_bytes);
        const Tick done = start + burst;
        chan.busReadyTick = start + std::max<Tick>(1, burst / 2);
        writes_.inc();
        writeBytes_.inc(burst_bytes);
        return done;
    }

    const Tick done = serviceCommand(now, coord, burst_bytes);
    reads_.inc();
    readBytes_.inc(burst_bytes);
    readLatency_.sample(done - now);
    return done;
}

Tick
DramModule::serviceCommand(Tick earliest, const DramCoord &coord,
                           std::uint32_t burst_bytes)
{
    Channel &chan = channels_[coord.channel];
    Bank &bank = chan.banks[coord.bank];

    Tick start = std::max(earliest, bank.readyTick);
    // All-bank refresh: commands issued during a refresh window wait
    // for it to complete (tREFI period, tRFC duration).
    if (timings_.tRefi != 0) {
        const Tick phase = start % refiCyc_;
        if (phase < rfcCyc_) {
            start += rfcCyc_ - phase;
            refreshStalls_.inc();
        }
    }
    Tick issue_done; // when column command data can start moving
    switch (bank.outcomeFor(coord.row)) {
      case RowOutcome::Hit:
        rowHits_.inc();
        issue_done = start + casCyc_;
#if CAMEO_AUDIT_ENABLED
        protoAudit_.onColumn(coord.channel, coord.bank, coord.row, start);
#endif
        break;
      case RowOutcome::Closed:
        rowClosed_.inc();
        bank.activateTick = start;
        issue_done = start + rcdCyc_ + casCyc_;
#if CAMEO_AUDIT_ENABLED
        protoAudit_.onActivate(coord.channel, coord.bank, coord.row, start);
        protoAudit_.onColumn(coord.channel, coord.bank, coord.row,
                             start + rcdCyc_);
#endif
        break;
      case RowOutcome::Conflict: {
        rowConflicts_.inc();
        // Precharge may not begin before tRAS elapses from activation.
        const Tick pre_start =
            std::max(start, bank.activateTick + rasCyc_);
        const Tick act_start = pre_start + rpCyc_;
        bank.activateTick = act_start;
        issue_done = act_start + rcdCyc_ + casCyc_;
#if CAMEO_AUDIT_ENABLED
        protoAudit_.onPrecharge(coord.channel, coord.bank, pre_start);
        protoAudit_.onActivate(coord.channel, coord.bank, coord.row,
                               act_start);
        protoAudit_.onColumn(coord.channel, coord.bank, coord.row,
                             act_start + rcdCyc_);
#endif
        break;
      }
      default:
        issue_done = start; // unreachable
    }
    bank.openRow = coord.row;

    // Data transfer occupies the channel bus.
    const Tick burst = burstCyclesFast(burst_bytes);
    const Tick data_start = std::max(issue_done, chan.busReadyTick);
    const Tick done = data_start + burst;
    chan.busReadyTick = done;
    // Column commands pipeline: the bank can accept the next command
    // once this access's data transfer begins; data serialization is
    // the channel bus's job, and activate-to-activate spacing is still
    // enforced through activateTick + tRAS (+ tRP), i.e. tRC.
    bank.readyTick = data_start;

    if (mode_ == TimingMode::Queued)
        recordBandwidth(done, burst_bytes);
    return done;
}

void
DramModule::setTimingMode(TimingMode mode, const DramQueueConfig &queues)
{
    assert(queues.readWindow > 0 && queues.writeQueueDepth > 0);
    assert(queues.drainLowWatermark < queues.drainHighWatermark);
    assert(queues.drainHighWatermark <= queues.writeQueueDepth);
    mode_ = mode;
    queueCfg_ = queues;
    queued_.clear();
    if (mode_ == TimingMode::Queued)
        queued_.resize(channels_.size());
}

Tick
DramModule::queuedRequest(Tick now, std::uint64_t device_line,
                          bool is_write, std::uint32_t burst_bytes)
{
    assert(device_line < capacityLines_ && "device address out of range");

    const DramCoord coord = map_.decode(device_line);
    QueuedChannel &qc = queued_[coord.channel];

    if (is_write) {
        // Posted write: buffered immediately, byte counters exact at
        // enqueue. The buffer only touches banks/buses when drained.
        writes_.inc();
        writeBytes_.inc(burst_bytes);
        writeQueueDepth_.sample(qc.writeQueue.size());
        qc.writeQueue.push_back(QueuedWrite{device_line, burst_bytes});
        CAMEO_AUDIT(qc.writeQueue.size() <= queueCfg_.drainHighWatermark,
                    "write queue grew past the drain high watermark");
        if (qc.writeQueue.size() >= queueCfg_.drainHighWatermark) {
            // High watermark: the drain burst blocks the channel, and
            // the triggering write is accepted once space is free.
            return drainWrites(now, coord.channel,
                               queueCfg_.drainLowWatermark);
        }
        return now + 1;
    }

    // Retire in-service reads that completed before this arrival.
    while (!qc.inServiceReads.empty() && qc.inServiceReads.front() <= now)
        qc.inServiceReads.pop_front();
    CAMEO_AUDIT(qc.inServiceReads.empty() ||
                    qc.inServiceReads.front() > now,
                "completed in-service reads were not fully retired");
    readQueueDepth_.sample(qc.inServiceReads.size());

    Tick earliest = now;
    if (qc.inServiceReads.size() >= queueCfg_.readWindow) {
        // Window full: the arrival waits for the oldest in-service
        // read to complete before it can occupy a queue slot.
        queueFullStalls_.inc();
        earliest = qc.inServiceReads.front();
        qc.inServiceReads.pop_front();
        CAMEO_AUDIT(qc.inServiceReads.size() < queueCfg_.readWindow,
                    "in-service window still full after evicting the "
                    "oldest read");
    }

    // Opportunistic drain: an idle bus ahead of this read lets the
    // controller slip one buffered write in (read-priority policy
    // drains writes only when no read is waiting).
    if (!qc.writeQueue.empty() &&
        channels_[coord.channel].busReadyTick < earliest) {
        drainWrites(earliest, coord.channel, qc.writeQueue.size() - 1);
    }

    const Tick done = serviceCommand(earliest, coord, burst_bytes);
    reads_.inc();
    readBytes_.inc(burst_bytes);
    readLatency_.sample(done - now);
    CAMEO_AUDIT(qc.inServiceReads.empty() ||
                    done >= qc.inServiceReads.back(),
                "in-service read completions are out of order");
    qc.inServiceReads.push_back(done);
    return done;
}

Tick
DramModule::drainWrites(Tick now, std::uint32_t chan_idx,
                        std::size_t target)
{
    QueuedChannel &qc = queued_[chan_idx];
    Channel &chan = channels_[chan_idx];
    Tick last_done = now;
    writeDrains_.inc();
    while (qc.writeQueue.size() > target) {
        // FR-FCFS: the oldest write whose row is already open goes
        // first; with no open-row match, strict arrival order.
        std::size_t pick = 0;
        for (std::size_t i = 0; i < qc.writeQueue.size(); ++i) {
            const DramCoord c = map_.decode(qc.writeQueue[i].line);
            if (chan.banks[c.bank].openRow == c.row) {
                pick = i;
                break;
            }
        }
        const QueuedWrite write = qc.writeQueue[pick];
        CAMEO_AUDIT(pick < qc.writeQueue.size(),
                    "FR-FCFS picked a write outside the queue");
        qc.writeQueue.erase(qc.writeQueue.begin() +
                            static_cast<std::ptrdiff_t>(pick));
        const DramCoord coord = map_.decode(write.line);
        last_done = serviceCommand(now, coord, write.burstBytes);
        drainedWrites_.inc();
    }
    return last_done;
}

void
DramModule::recordBandwidth(Tick done, std::uint32_t bytes)
{
    if (done >= bandwidthWindowStart_ + kBandwidthWindow) {
        busBytesPerWindow_.sample(bandwidthWindowBytes_);
        bandwidthWindowStart_ = done - done % kBandwidthWindow;
        bandwidthWindowBytes_ = 0;
    }
    bandwidthWindowBytes_ += bytes;
}

Tick
DramModule::earliestServiceStart(std::uint64_t device_line) const
{
    assert(device_line < capacityLines_);
    const DramCoord coord = map_.decode(device_line);
    const Channel &chan = channels_[coord.channel];
    const Bank &bank = chan.banks[coord.bank];
    return std::max(bank.readyTick, chan.busReadyTick);
}

void
DramModule::registerStats(StatRegistry &registry)
{
    registry.add(reads_);
    registry.add(writes_);
    registry.add(readBytes_);
    registry.add(writeBytes_);
    registry.add(rowHits_);
    registry.add(rowClosed_);
    registry.add(rowConflicts_);
    registry.add(refreshStalls_);
    registry.add(readLatency_);
    // Queued-only stats register conditionally so blocking-mode dumps
    // (and with them the golden references) are unchanged.
    if (mode_ == TimingMode::Queued) {
        registry.add(queueFullStalls_);
        registry.add(writeDrains_);
        registry.add(drainedWrites_);
        registry.add(readQueueDepth_);
        registry.add(writeQueueDepth_);
        registry.add(busBytesPerWindow_);
    }
}

void
DramModule::reset()
{
    for (Channel &chan : channels_) {
        chan.busReadyTick = 0;
        for (Bank &bank : chan.banks)
            bank = Bank{};
    }
#if CAMEO_AUDIT_ENABLED
    protoAudit_.reset();
#endif
    reads_.reset();
    writes_.reset();
    readBytes_.reset();
    writeBytes_.reset();
    rowHits_.reset();
    rowClosed_.reset();
    rowConflicts_.reset();
    refreshStalls_.reset();
    readLatency_.reset();
    for (QueuedChannel &qc : queued_) {
        // An emptied queue has no protocol invariant left to check.
        // cameo-analyze: allow(audit-coverage): reset() drops reads
        qc.inServiceReads.clear();
        // cameo-analyze: allow(audit-coverage): reset() drops writes
        qc.writeQueue.clear();
    }
    bandwidthWindowStart_ = 0;
    bandwidthWindowBytes_ = 0;
    queueFullStalls_.reset();
    writeDrains_.reset();
    drainedWrites_.reset();
    readQueueDepth_.reset();
    writeQueueDepth_.reset();
    busBytesPerWindow_.reset();
}

void
DramModule::save(SnapshotWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(channels_.size()));
    w.u32(channels_.empty()
              ? 0
              : static_cast<std::uint32_t>(channels_[0].banks.size()));
    w.u8(mode_ == TimingMode::Queued ? 1 : 0);
    for (const Channel &chan : channels_) {
        w.u64(chan.busReadyTick);
        for (const Bank &bank : chan.banks) {
            w.u64(bank.openRow);
            w.u64(bank.activateTick);
            w.u64(bank.readyTick);
        }
    }
    if (mode_ == TimingMode::Queued) {
        for (const QueuedChannel &qc : queued_) {
            w.u64(qc.inServiceReads.size());
            for (Tick t : qc.inServiceReads)
                w.u64(t);
            w.u64(qc.writeQueue.size());
            for (const QueuedWrite &qw : qc.writeQueue) {
                w.u64(qw.line);
                w.u32(qw.burstBytes);
            }
        }
        w.u64(bandwidthWindowStart_);
        w.u64(bandwidthWindowBytes_);
    }
}

void
DramModule::restore(SnapshotReader &r)
{
    const std::uint32_t nChannels = r.u32();
    const std::uint32_t nBanks = r.u32();
    const bool queued = r.u8() != 0;
    if (!r.ok())
        return;
    if (nChannels != channels_.size() ||
        (nChannels != 0 && nBanks != channels_[0].banks.size())) {
        r.fail("dram: '" + name_ + "' geometry mismatch: snapshot has " +
               std::to_string(nChannels) + "x" + std::to_string(nBanks) +
               " (channels x banks), this device has " +
               std::to_string(channels_.size()) + "x" +
               std::to_string(channels_.empty()
                                  ? 0
                                  : channels_[0].banks.size()));
        return;
    }
    if (queued != (mode_ == TimingMode::Queued)) {
        r.fail("dram: '" + name_ + "' timing-mode mismatch: snapshot " +
               (queued ? "Queued" : "Blocking") + ", this device " +
               (mode_ == TimingMode::Queued ? "Queued" : "Blocking"));
        return;
    }
    for (std::uint32_t c = 0; c < nChannels; ++c) {
        Channel &chan = channels_[c];
        chan.busReadyTick = r.u64();
        for (std::uint32_t b = 0; b < nBanks; ++b) {
            Bank &bank = chan.banks[b];
            bank.openRow = r.u64();
            bank.activateTick = r.u64();
            bank.readyTick = r.u64();
#if CAMEO_AUDIT_ENABLED
            protoAudit_.resyncBank(c, b, bank.openRow,
                                   bank.activateTick);
#endif
        }
    }
    if (queued) {
        for (QueuedChannel &qc : queued_) {
            const std::uint64_t nReads = r.u64();
            qc.inServiceReads.clear();
            for (std::uint64_t i = 0; i < nReads && r.ok(); ++i) {
                const Tick t = r.u64();
                // Restored windows must honor the invariant the live
                // controller maintains: bus-serialized reads complete
                // in nondecreasing order.
                CAMEO_AUDIT(qc.inServiceReads.empty() ||
                                t >= qc.inServiceReads.back(),
                            "dram: restored in-service read window not "
                            "nondecreasing");
                qc.inServiceReads.push_back(t);
            }
            const std::uint64_t nWrites = r.u64();
            qc.writeQueue.clear();
            for (std::uint64_t i = 0; i < nWrites && r.ok(); ++i) {
                QueuedWrite qw;
                qw.line = r.u64();
                qw.burstBytes = r.u32();
                qc.writeQueue.push_back(qw);
            }
            // Restored queues must honor the same bound the live
            // controller enforces on every enqueue.
            CAMEO_AUDIT(qc.writeQueue.size() <=
                            queueCfg_.drainHighWatermark,
                        "dram: restored write queue exceeds the drain "
                        "high watermark");
        }
        bandwidthWindowStart_ = r.u64();
        bandwidthWindowBytes_ = r.u64();
    }
}

} // namespace cameo
