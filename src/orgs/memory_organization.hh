/**
 * @file
 * MemoryOrganization: the interface every stacked-DRAM usage model
 * implements, plus the factory used by System and the benches.
 *
 * The base class builds and owns the two DRAM modules every design
 * drives (Table I's stacked and off-chip DRAM; Baseline has no stacked
 * one), sets their timing mode and queue geometry, and registers their
 * statistics. A concrete organization decides how OS-physical line
 * addresses map onto those devices and models the timing of each
 * access. It also reports the OS-visible capacity it exposes — the
 * property that separates a cache (stacked DRAM invisible) from
 * TLM/CAMEO (visible), and therefore drives the page-fault behaviour of
 * Capacity-Limited workloads.
 *
 * Each organization has one access routine, access(), that makes its
 * architectural state updates and issues its DRAM requests. Fidelity
 * (DESIGN.md §13) lives in the DRAM modules: setFidelity(Functional)
 * makes both modules untimed, so the same routine updates the same
 * state and returns the request time. The factory builds the TLM
 * family and Banshee as ComposedOrg policy pairs, and DoubleUse as an
 * AlloyCacheOrg over enlarged backing memory (DESIGN.md §14).
 *
 * Requesters enter through submit(), the transaction front door
 * (DESIGN.md §9): it wraps the timed access() model in a
 * MemRequest and delivers the completion to the issuing MemClient —
 * synchronously in Blocking timing (the legacy control flow,
 * bit-identical stats), or through the bound SimKernel event queue at
 * the completion tick in Queued timing.
 */

#ifndef CAMEO_ORGS_MEMORY_ORGANIZATION_HH
#define CAMEO_ORGS_MEMORY_ORGANIZATION_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.hh"
#include "snapshot/snapshot.hh"
#include "dram/dram_module.hh"
#include "dram/queue_config.hh"
#include "dram/timings.hh"
#include "orgs/policy/page_heat.hh"
#include "orgs/policy/policy_config.hh"
#include "sim/event_queue.hh"
#include "sim/fidelity.hh"
#include "sim/mem_request.hh"
#include "stats/registry.hh"
#include "util/types.hh"
#if CAMEO_AUDIT_ENABLED
#include "check/queue_auditor.hh"
#endif

namespace cameo
{

class CameoOrg;

/** The designs compared throughout the paper's evaluation. */
enum class OrgKind
{
    Baseline,   ///< No stacked DRAM; off-chip only.
    AlloyCache, ///< Stacked DRAM as an Alloy (direct-mapped TAD) cache.
    TlmStatic,  ///< Two-Level Memory, random static page placement.
    TlmDynamic, ///< TLM + page swap on off-chip access (Section II-C).
    TlmFreq,    ///< TLM + epoch-based frequency placement (Sec VI-D).
    TlmOracle,  ///< TLM + oracular page placement (Section VI-D).
    DoubleUse,  ///< Idealistic: cache AND extra capacity (Sec II-D).
    Cameo,      ///< The paper's proposal.
    CameoFreq,  ///< CAMEO + frequency-directed swap admission (the
                ///< Section VI-D extension; see orgs/cameo_org.hh).
    Banshee,    ///< PTE-cached page mapping + sampling-counter
                ///< frequency placement (Yu et al., MICRO 2017; see
                ///< DESIGN.md §14).
};

/** Printable name of an organization kind. */
const char *orgKindName(OrgKind kind);

/**
 * Inverse of orgKindName: parse @p name (case-insensitively, so CLI
 * spellings like "tlm-static" and "cameo-freq" work) into a kind.
 * Empty optional for unknown names.
 */
std::optional<OrgKind> orgKindFromName(std::string_view name);

/** Every OrgKind, in enum order (CLI listings, test matrices). */
const std::vector<OrgKind> &allOrgKinds();

/**
 * The mapping x placement pair an organization kind composes
 * (DESIGN.md §14). For ComposedOrg-based kinds these are the live
 * policies' policyName() strings; for the single-class kinds
 * (Baseline, the Alloy family, the CAMEO family) they name the
 * mechanism the org's own access path implements.
 */
struct OrgComposition
{
    const char *mapping;
    const char *placement;
};

/** Composition table entry for @p kind. */
OrgComposition orgComposition(OrgKind kind);

/** Everything needed to construct any organization. */
struct OrgConfig
{
    std::uint64_t stackedBytes = 8ull << 20;
    std::uint64_t offchipBytes = 24ull << 20;
    DramTimings stacked = stackedTimings();
    DramTimings offchip = offchipTimings();
    std::uint32_t numCores = 8;
    std::uint64_t seed = 42;

    /** Per-policy design points (orgs/policy/policy_config.hh). */
    LltPolicyConfig llt;
    FreqPolicyConfig freq;
    MigratePolicyConfig migrate;
    BansheePolicyConfig banshee;

    /**
     * Memory-pipeline timing mode. Blocking reproduces the original
     * synchronous semantics bit-for-bit; Queued enables the DRAM
     * controller queues and event-delivered completions.
     */
    TimingMode timingMode = TimingMode::Blocking;

    /** DRAM controller queue geometry (Queued timing only). */
    DramQueueConfig dramQueues;

    /**
     * First violated constraint across the shared fields, every policy
     * sub-config, and the geometry @p kind needs; nullptr when the
     * config can build an organization of @p kind.
     */
    const char *validate(OrgKind kind) const;
};

/** Base class for all stacked-DRAM usage models. */
class MemoryOrganization : public Checkpointable
{
  public:
    ~MemoryOrganization() override;

    MemoryOrganization(const MemoryOrganization &) = delete;
    MemoryOrganization &operator=(const MemoryOrganization &) = delete;

    /**
     * Service one OS-physical line access: update the architectural
     * state — tag arrays, LLT permutations, predictor training, heat
     * counters, migration decisions, RNG draws, demand-routing
     * counters — and issue the DRAM requests that placement costs.
     * Under setFidelity(Functional) the requests return at once, so
     * the same updates happen in the same order and the routine
     * returns @p now.
     *
     * @param now      Request time.
     * @param line     OS-physical line address.
     * @param is_write L3 writeback (true) or demand fill (false).
     * @param pc       Missing instruction address (for predictors).
     * @param core     Requesting core id.
     * @return Data-arrival time for reads; acceptance time for writes.
     */
    virtual Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                        std::uint32_t core) = 0;

    /**
     * Switch both DRAM modules between timed (Detailed) and untimed
     * (Functional) service, DESIGN.md §13. Organizations are built at
     * Detailed; System's functional warmup switches to Functional for
     * its synchronous loop only.
     */
    void setFidelity(Fidelity fidelity);

    /**
     * Reset all timing state while preserving architectural state: the
     * DRAM modules' bank/bus reservations, controller queues, protocol
     * auditor and counters, and the pipeline's request ids and queue
     * auditor go back to power-on. System calls this at the
     * warmup→measured switch (after the warmup phase has drained) so
     * functional- and detailed-warmup runs enter the measured region
     * with identical timing state.
     */
    void resetTiming();

    /**
     * Submit one transaction to the memory pipeline; the organization
     * must be at Detailed fidelity. Timing comes from access();
     * completion delivery depends on the mode: Blocking invokes
     * @p client->onMemComplete before returning (identical control
     * flow to calling access() directly), Queued schedules it on the
     * bound event queue at the completion tick.
     *
     * @param now      Request time (requester's local clock).
     * @param line     OS-physical line address.
     * @param is_write L3 writeback (true) or demand fill (false).
     * @param pc       Missing instruction address (for predictors).
     * @param core     Requesting core id.
     * @param tag      Requester-chosen tag carried back in the
     *                 completion (kNoTag when unused).
     * @param client   Completion receiver; nullptr for fire-and-forget
     *                 requests (posted writebacks).
     * @return The completion tick (also delivered to @p client).
     */
    Tick submit(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core, std::uint64_t tag = kNoTag,
                MemClient *client = nullptr);

    /**
     * Bind (or with nullptr, unbind) the event queue that Queued-mode
     * completions are scheduled on. System binds its kernel's queue for
     * the duration of a run. Unbound, submit() delivers synchronously
     * even in Queued timing.
     */
    void bindEventQueue(EventQueue *events)
    {
        events_ = events;
#if CAMEO_AUDIT_ENABLED
        // Unbinding marks end-of-run: every submitted transaction must
        // have completed by now (the kernel drains leftover events).
        if (events == nullptr)
            queueAudit_.checkDrained();
#endif
    }

    /** The pipeline timing mode this organization was built with. */
    TimingMode timingMode() const { return offchip_.timingMode(); }

    /**
     * OS-visible memory capacity in bytes (whole pages). The default is
     * the off-chip capacity: stacked DRAM used as a cache (or absent)
     * adds none.
     */
    virtual std::uint64_t visibleBytes() const
    {
        return offchip_.capacityBytes();
    }

    /**
     * Register the organization's statistics: the stacked module's,
     * then the off-chip module's. Overrides call this first and then
     * add their own.
     */
    virtual void registerStats(StatRegistry &registry);

    /** Stacked module, if this organization has one. */
    DramModule *stackedModule() { return stacked_ ? &*stacked_ : nullptr; }
    const DramModule *stackedModule() const
    {
        return stacked_ ? &*stacked_ : nullptr;
    }

    /** Off-chip module (every organization has one). */
    DramModule &offchipModule() { return offchip_; }
    const DramModule &offchipModule() const { return offchip_; }

    /**
     * Hook: a virtual page became resident in @p frame. TLM-Oracle uses
     * this to steer placement; others ignore it.
     */
    virtual void onPageMapped(std::uint32_t frame, std::uint32_t core,
                              PageAddr vpage);

    /** This organization as CAMEO, if it is CAMEO or CAMEO-Freq. */
    virtual const CameoOrg *cameo() const { return nullptr; }

    /**
     * Inject oracular page heat. Returns true when the organization's
     * placement consumed the oracle (TLM-Oracle); false when it takes
     * none — callers that require the oracle report that as an error
     * rather than asserting.
     */
    virtual bool setPageHeat(PageHeatMap heat);

    /**
     * Checkpointable: the base serializes the transaction-id cursor,
     * the in-flight (queued, undelivered) requests, and the DRAM
     * modules. Concrete organizations override both, write their own
     * mutable state, and chain to the base first so the byte layout is
     * stable across the hierarchy.
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

    /**
     * Re-schedule the completions of requests that were in flight when
     * the snapshot was taken. Must be called after restore() and after
     * bindEventQueue() (Queued mode with live requests only);
     * @p client_of maps a core id to its completion receiver — restore
     * assumes every in-flight request's client is its issuing core,
     * which holds for System-driven runs.
     */
    void rescheduleInflight(
        const std::function<MemClient *(std::uint32_t)> &client_of);

    /** Number of submitted-but-undelivered requests (Queued mode). */
    std::size_t inflightCount() const
    {
        return inflight_.size() - freeInflight_.size();
    }

    const std::string &name() const { return name_; }

  protected:
    /**
     * Build the off-chip module ("dram.offchip", @p config.offchip
     * timings, @p offchip_bytes) and, unless @p stacked_bytes is 0,
     * the stacked module ("dram.stacked", @p stacked_timings,
     * @p stacked_bytes), both at @p config's timing mode and queue
     * geometry. Designs that reshape a device pass their own sizes and
     * timings (Alloy's TAD rows and enlarged backing memory, CAMEO's
     * Embedded LLT region).
     */
    MemoryOrganization(std::string name, const OrgConfig &config,
                       std::uint64_t offchip_bytes,
                       const DramTimings &stacked_timings,
                       std::uint64_t stacked_bytes);

    /** Stacked DRAM; empty for Baseline. DramModule cannot move, so
     *  the constructor emplaces it. */
    std::optional<DramModule> stacked_;
    DramModule offchip_;

  private:
    /**
     * A submitted request whose completion has not been delivered. A
     * slot whose req.id is 0 is free (request ids start at 1).
     */
    struct InflightRequest
    {
        MemRequest req;
        Tick done = 0;
        MemClient *client = nullptr; ///< Not serialized; see restore().
    };

    /** Schedule inflight_[@p slot]'s completion on the event queue. */
    void scheduleCompletion(std::uint32_t slot);

    /** Retire inflight_[@p slot], then deliver it at @p when. */
    void completeInflight(std::uint32_t slot, Tick when);

    std::string name_;
    EventQueue *events_ = nullptr;
    std::uint64_t lastRequestId_ = 0;

    /**
     * Slab of queued, undelivered requests — the serializable image of
     * the kernel's pending completion events. Each completion event
     * names its slot, so retiring a request is O(1); freed slots are
     * reused through freeInflight_. Empty in Blocking mode.
     */
    std::vector<InflightRequest> inflight_;
    std::vector<std::uint32_t> freeInflight_;

#if CAMEO_AUDIT_ENABLED
    /** Shadow accounting of every submitted transaction. */
    QueueInvariantAuditor queueAudit_;
#endif
};

/** Construct an organization of @p kind from @p config. */
std::unique_ptr<MemoryOrganization> makeOrganization(OrgKind kind,
                                                     const OrgConfig &config);

} // namespace cameo

#endif // CAMEO_ORGS_MEMORY_ORGANIZATION_HH
