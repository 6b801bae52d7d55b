/**
 * @file
 * CpuCore: the trace-driven core model (one Agent per core).
 *
 * Table I's cores are 2-wide out-of-order at 3.2GHz. The model charges
 * cyclesPerInstruction for the non-memory instruction gap of each trace
 * record, services the access through VM -> shared L3 -> memory
 * organization, and approximates out-of-order overlap with a bounded
 * window of outstanding misses (per-workload MLP): independent misses
 * overlap up to the window size, dependent (pointer-chasing) misses
 * serialize, stores never block retirement, and page faults stall the
 * core for the full SSD latency.
 *
 * Scheduling discipline: every memory-system call is issued at the
 * core's *current* local clock, and any operation that would advance
 * the clock past other cores (dependence wait, page-fault stall, full
 * miss window) instead advances the clock and *yields* — step()
 * returns and the kernel resumes the core once the other cores have
 * caught up. This keeps request arrival times near-monotonic across
 * cores, which the DRAM reservation model relies on; without it, a
 * core returning from a 100K-cycle fault would reserve buses far in
 * the future and stall everyone else behind phantom queueing.
 *
 * Misses enter the memory system through MemoryOrganization::submit()
 * and return through onMemComplete() (the core is a MemClient). In
 * Blocking timing the completion fires inside submit(), reproducing
 * the legacy synchronous flow bit-for-bit. In Queued timing it arrives
 * later from the kernel's event queue; until then the miss occupies an
 * *unresolved* window slot, and a core whose window is all-unresolved
 * (or that depends on an unresolved load) parks — blocked() goes true,
 * the kernel removes it from the dispatch heap, and the completion
 * unparks it at the data-arrival tick.
 */

#ifndef CAMEO_SYSTEM_CPU_CORE_HH
#define CAMEO_SYSTEM_CPU_CORE_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "orgs/memory_organization.hh"
#include "sim/kernel.hh"
#include "sim/mem_request.hh"
#include "trace/access_source.hh"
#include "trace/generator.hh"
#include "vm/virtual_memory.hh"

namespace cameo
{

/** One simulated core consuming a synthetic trace. */
class CpuCore : public Agent, public MemClient
{
  public:
    /**
     * @param id           Core id (also the VM address-space id).
     * @param source       The core's access stream (synthetic
     *                     generator or trace replay). Owned.
     * @param num_accesses Trace length for this core.
     * @param cpi          Cycles per non-memory instruction.
     * @param mlp          Outstanding-miss window size.
     * @param l3_hit_stall Core stall charged per L3 load hit.
     * @param vm           Shared virtual memory.
     * @param llc          Shared L3.
     * @param org          Memory organization under test.
     */
    CpuCore(std::uint32_t id, std::unique_ptr<AccessSource> source,
            std::uint64_t num_accesses, double cpi, std::uint32_t mlp,
            Tick l3_hit_stall, VirtualMemory &vm, SetAssocCache &llc,
            MemoryOrganization &org);

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override
    {
        return processed_ >= numAccesses_ && !inflight_ && !pendingMiss_;
    }
    bool blocked() const override
    {
        return blockReason_ != BlockReason::None;
    }
    void step() override;

    /** Miss completion (from submit() or the event queue). */
    void onMemComplete(const MemRequest &req, Tick done) override;

    /** Completion time including in-flight misses. */
    Tick finishTick() const;

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t accesses() const { return processed_; }

    /**
     * Pull @p n warmup records straight from the source into @p buf —
     * the functional warmup's batch path (no refill ring, no
     * processed_ accounting, no per-record virtual dispatch). Only
     * valid before the core has fetched anything (fresh or just after
     * beginMeasurement()); the measured region then starts at the
     * source cursor this leaves behind.
     */
    void warmupRefill(Access *buf, std::size_t n)
    {
        assert(processed_ == 0 && ringLen_ == 0);
        source_->refill(buf, n);
    }

    /** Fast-forward the source past @p n records without processing
     *  them (restore path of a post-warmup snapshot). */
    void skipWarmup(std::uint64_t n)
    {
        assert(processed_ == 0 && ringLen_ == 0);
        source_->skip(n);
    }

    /**
     * Reset all execution progress for the measured region after a
     * warmup phase (DESIGN.md §13): clock, miss window, dependence
     * tracking, instruction and access counts, and the refill ring all
     * return to power-on. The source cursor is NOT touched — it stays
     * wherever the warmup left it — and the trace length becomes
     * @p num_accesses. Requires the warmup to have drained (no
     * in-flight access, no pending or unresolved misses).
     */
    void beginMeasurement(std::uint64_t num_accesses);

    /**
     * Checkpoint the core's architectural progress: clock, miss window,
     * dependence state, the in-flight access, and the trace cursor. The
     * refill ring is NOT serialized — batch boundaries never change the
     * record stream (AccessSource contract), so restore() rewinds the
     * ring and fast-forwards the freshly constructed source by
     * processed_ records instead. A snapshot may be restored into a
     * core configured for a LONGER trace (a prefix reused for a longer
     * run, as by cameo-sim --restore with a larger --accesses): the only
     * requirement checked is processed_ <= numAccesses_.
     */
    void save(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);

  private:
    /** Progress of the access currently being processed. */
    enum class Stage
    {
        NeedTranslate, ///< Gap charged; next: VM translation.
        NeedFinish,    ///< Translated; next: L3 and memory.
    };

    /** The access currently being processed (between yields). */
    struct InFlight
    {
        Access acc;
        std::uint32_t frame = 0;
        Stage stage = Stage::NeedTranslate;
    };

    /** An L3 miss waiting for a free miss-window slot. */
    struct PendingMiss
    {
        LineAddr line;
        InstAddr pc;
        bool isLoad;
    };

    /** Why the core is parked (Queued timing only; see blocked()). */
    enum class BlockReason
    {
        None,       ///< Runnable.
        WindowFull, ///< Every miss-window slot is unresolved.
        Dependence, ///< Next access depends on an unresolved load.
    };

    /** Records pulled from the source per refill() virtual call. */
    static constexpr std::uint32_t kRefillBatch = 64;

    /** Issue the pending miss if a window slot is free; else yield. */
    void tryIssuePendingMiss();

    /** L3 + memory for the in-flight access (after translation). */
    void finishAccess();

    /**
     * Next trace record, served from the refill ring. Refills pull at
     * most the records this core will still process, so the source is
     * never advanced past the trace length.
     */
    Access fetchAccess();

    std::uint32_t id_;
    std::unique_ptr<AccessSource> source_;
    std::uint64_t numAccesses_;
    double cpi_;
    std::uint32_t mlp_;
    Tick l3HitStall_;

    VirtualMemory &vm_;
    SetAssocCache &llc_;
    MemoryOrganization &org_;

    Tick clock_ = 0;
    Tick lastMissComplete_ = 0;

    /** Completion ticks of *resolved* misses still holding a window
     *  slot (freed when the clock catches up with them). */
    std::vector<Tick> outstanding_;

    /** Submitted misses whose completion has not arrived yet (always 0
     *  between steps in Blocking timing). */
    std::uint32_t unresolved_ = 0;

    /** Tag of the most recently issued load miss (see MemRequest::tag);
     *  dependence stalls wait for exactly this one. */
    std::uint64_t lastLoadTag_ = 0;
    std::uint64_t nextLoadTag_ = 1;
    bool lastLoadResolved_ = true;

    BlockReason blockReason_ = BlockReason::None;

    std::optional<InFlight> inflight_;
    std::optional<PendingMiss> pendingMiss_;
    std::uint64_t processed_ = 0;
    std::uint64_t instructions_ = 0;

    /** Ring of prefetched trace records (see fetchAccess). */
    std::array<Access, kRefillBatch> ring_{};
    std::uint32_t ringPos_ = 0;
    std::uint32_t ringLen_ = 0;
};

} // namespace cameo

#endif // CAMEO_SYSTEM_CPU_CORE_HH
