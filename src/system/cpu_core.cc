#include "system/cpu_core.hh"

#include <algorithm>
#include <cassert>

namespace cameo
{

CpuCore::CpuCore(std::uint32_t id, std::unique_ptr<AccessSource> source,
                 std::uint64_t num_accesses, double cpi, std::uint32_t mlp,
                 Tick l3_hit_stall, VirtualMemory &vm, SetAssocCache &llc,
                 MemoryOrganization &org)
    : id_(id), source_(std::move(source)), numAccesses_(num_accesses),
      cpi_(cpi), mlp_(std::max(1u, mlp)), l3HitStall_(l3_hit_stall),
      vm_(vm), llc_(llc), org_(org)
{
    assert(source_ != nullptr);
    outstanding_.reserve(mlp_);
}

void
CpuCore::tryIssuePendingMiss()
{
    assert(pendingMiss_);
    if (outstanding_.size() + unresolved_ >= mlp_) {
        if (outstanding_.empty()) {
            // Every slot is unresolved (Queued timing): no completion
            // tick to advance to — park until one arrives.
            blockReason_ = BlockReason::WindowFull;
            return;
        }
        const auto oldest =
            std::min_element(outstanding_.begin(), outstanding_.end());
        if (*oldest > clock_) {
            // Yield: wait for the oldest miss to return, then retry.
            clock_ = *oldest;
            return;
        }
        outstanding_.erase(oldest);
    }
    const PendingMiss miss = *pendingMiss_;
    pendingMiss_.reset();
    std::uint64_t tag = kNoTag;
    if (miss.isLoad) {
        tag = nextLoadTag_++;
        lastLoadTag_ = tag;
        lastLoadResolved_ = false;
    }
    ++unresolved_;
    org_.submit(clock_, miss.line, false, miss.pc, id_, tag, this);
    // The core continues past the load (OoO overlap); backpressure
    // comes from the window and from dependences.
    clock_ += 1;
}

void
CpuCore::onMemComplete(const MemRequest &req, Tick done)
{
    assert(unresolved_ > 0);
    --unresolved_;
    outstanding_.push_back(done);
    if (req.tag != kNoTag && req.tag == lastLoadTag_) {
        lastMissComplete_ = done;
        lastLoadResolved_ = true;
    }
    if (blockReason_ == BlockReason::WindowFull ||
        (blockReason_ == BlockReason::Dependence && lastLoadResolved_)) {
        // Unpark at the data-arrival time; the event queue delivers in
        // global-time order, so this never regresses the clock below a
        // tick the kernel already dispatched.
        blockReason_ = BlockReason::None;
        clock_ = std::max(clock_, done);
    }
}

void
CpuCore::finishAccess()
{
    assert(inflight_ && inflight_->stage == Stage::NeedFinish);
    const Access acc = inflight_->acc;
    const std::uint32_t frame = inflight_->frame;
    inflight_.reset();

    const LineAddr phys_line =
        std::uint64_t{frame} * kLinesPerPage +
        (lineOf(acc.vaddr) & (kLinesPerPage - 1));

    const CacheAccessResult res = llc_.access(phys_line, acc.isWrite);
    if (res.hit) {
        // An OoO core hides most of the pipelined L3 hit latency;
        // loads charge only the configured residue, stores retire
        // through the store buffer without blocking.
        if (!acc.isWrite)
            clock_ += l3HitStall_;
        return;
    }

    // Miss path: the request leaves after the L3 lookup.
    clock_ += llc_.hitLatency();

    // Evicted dirty line goes out through the writeback queue; it
    // costs bandwidth but never blocks the core (fire-and-forget: no
    // client, no window slot).
    if (res.hasWriteback)
        org_.submit(clock_, res.writebackLine, true, acc.pc, id_);

    pendingMiss_ = PendingMiss{phys_line, acc.pc, !acc.isWrite};
    tryIssuePendingMiss();
}

void
CpuCore::step()
{
    assert(!done());

    if (pendingMiss_) {
        tryIssuePendingMiss();
        return;
    }

    if (!inflight_) {
        const Access acc = fetchAccess();
        ++processed_;
        instructions_ += acc.gapInstructions;
        // Compute phase between memory operations.
        clock_ += static_cast<Tick>(
            static_cast<double>(acc.gapInstructions) * cpi_);
        inflight_ = InFlight{acc, 0, Stage::NeedTranslate};
        // Dependent (pointer-chase) accesses cannot start before the
        // producer's data arrives; yield so other cores fill the gap.
        // With the producer still unresolved (Queued timing) there is
        // no arrival tick to yield to yet — park for its completion.
        if (acc.dependsOnPrev) {
            if (!lastLoadResolved_) {
                blockReason_ = BlockReason::Dependence;
                return;
            }
            if (lastMissComplete_ > clock_) {
                clock_ = lastMissComplete_;
                return;
            }
        }
    }

    if (inflight_->stage == Stage::NeedTranslate) {
        const Translation tr = vm_.translate(
            clock_, id_, pageOf(inflight_->acc.vaddr),
            inflight_->acc.isWrite);
        inflight_->frame = tr.frame;
        inflight_->stage = Stage::NeedFinish;
        if (tr.majorFault) {
            // Yield across the SSD stall: the clock jumps 100K cycles
            // and other cores must run that interval first.
            clock_ = tr.readyTick;
            return;
        }
    }

    finishAccess();
}

Access
CpuCore::fetchAccess()
{
    if (ringPos_ == ringLen_) {
        assert(processed_ < numAccesses_);
        const std::uint64_t remaining = numAccesses_ - processed_;
        ringLen_ = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kRefillBatch, remaining));
        source_->refill(ring_.data(), ringLen_);
        ringPos_ = 0;
    }
    return ring_[ringPos_++];
}

void
CpuCore::save(SnapshotWriter &w) const
{
    w.u64(clock_);
    w.u64(lastMissComplete_);
    w.vecU64(outstanding_);
    w.u32(unresolved_);
    w.u64(lastLoadTag_);
    w.u64(nextLoadTag_);
    w.b(lastLoadResolved_);
    w.u8(static_cast<std::uint8_t>(blockReason_));
    w.b(inflight_.has_value());
    if (inflight_) {
        w.u64(inflight_->acc.pc);
        w.u64(inflight_->acc.vaddr);
        w.b(inflight_->acc.isWrite);
        w.b(inflight_->acc.dependsOnPrev);
        w.u32(inflight_->acc.gapInstructions);
        w.u32(inflight_->frame);
        w.u8(static_cast<std::uint8_t>(inflight_->stage));
    }
    w.b(pendingMiss_.has_value());
    if (pendingMiss_) {
        w.u64(pendingMiss_->line);
        w.u64(pendingMiss_->pc);
        w.b(pendingMiss_->isLoad);
    }
    w.u64(processed_);
    w.u64(instructions_);
}

void
CpuCore::restore(SnapshotReader &r)
{
    clock_ = r.u64();
    lastMissComplete_ = r.u64();
    r.vecU64(outstanding_);
    if (r.ok() && outstanding_.size() > mlp_) {
        r.fail("core: more outstanding misses than the miss window holds");
        return;
    }
    unresolved_ = r.u32();
    if (r.ok() && outstanding_.size() + unresolved_ > mlp_) {
        r.fail("core: miss window overcommitted in snapshot");
        return;
    }
    lastLoadTag_ = r.u64();
    nextLoadTag_ = r.u64();
    lastLoadResolved_ = r.b();
    const std::uint8_t reason = r.u8();
    if (r.ok() &&
        reason > static_cast<std::uint8_t>(BlockReason::Dependence)) {
        r.fail("core: invalid block reason in snapshot");
        return;
    }
    blockReason_ = static_cast<BlockReason>(reason);
    inflight_.reset();
    if (r.b()) {
        InFlight f;
        f.acc.pc = r.u64();
        f.acc.vaddr = r.u64();
        f.acc.isWrite = r.b();
        f.acc.dependsOnPrev = r.b();
        f.acc.gapInstructions = r.u32();
        f.frame = r.u32();
        const std::uint8_t stage = r.u8();
        if (r.ok() &&
            stage > static_cast<std::uint8_t>(Stage::NeedFinish)) {
            r.fail("core: invalid in-flight stage in snapshot");
            return;
        }
        f.stage = static_cast<Stage>(stage);
        inflight_ = f;
    }
    pendingMiss_.reset();
    if (r.b()) {
        PendingMiss miss{};
        miss.line = r.u64();
        miss.pc = r.u64();
        miss.isLoad = r.b();
        pendingMiss_ = miss;
    }
    processed_ = r.u64();
    instructions_ = r.u64();
    if (!r.ok())
        return;
    if (processed_ > numAccesses_) {
        r.fail("core: snapshot processed " + std::to_string(processed_) +
               " accesses but this core is configured for only " +
               std::to_string(numAccesses_));
        return;
    }
    // The source is freshly constructed (and already past any warmup
    // skip): advance it to the trace cursor and start the ring empty —
    // the next fetchAccess() refills from record processed_.
    source_->skip(processed_);
    ringPos_ = 0;
    ringLen_ = 0;
}

void
CpuCore::beginMeasurement(std::uint64_t num_accesses)
{
    assert(!inflight_ && !pendingMiss_ && unresolved_ == 0 &&
           "warmup must drain before the measured region starts");
    numAccesses_ = num_accesses;
    clock_ = 0;
    lastMissComplete_ = 0;
    outstanding_.clear();
    lastLoadTag_ = 0;
    nextLoadTag_ = 1;
    lastLoadResolved_ = true;
    blockReason_ = BlockReason::None;
    processed_ = 0;
    instructions_ = 0;
    ringPos_ = 0;
    ringLen_ = 0;
}

Tick
CpuCore::finishTick() const
{
    Tick finish = clock_;
    for (const Tick t : outstanding_)
        finish = std::max(finish, t);
    return std::max(finish, lastMissComplete_);
}

} // namespace cameo
