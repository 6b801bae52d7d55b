/**
 * @file
 * QueueInvariantAuditor: end-to-end accounting for the transaction
 * pipeline (MemoryOrganization::submit -> MemClient::onMemComplete).
 *
 * The queued timing mode detaches request completion from request
 * submission: completions travel through the kernel's event queue and
 * arrive many steps later. That indirection creates failure modes the
 * blocking mode cannot have — a completion that never fires (lost
 * request), one that fires twice (duplicated event), one that fires
 * before its request was submitted in simulated time, or deliveries
 * that run backwards in global time. The auditor shadows every
 * transaction by id and reports violations to the AuditSink:
 *
 *  - submit ids are unique among outstanding requests;
 *  - every completion matches an outstanding submit;
 *  - completion time >= submit time;
 *  - (queued mode) deliveries are monotonic in global time, because
 *    the event queue fires in tick order;
 *  - (optional) outstanding occupancy never exceeds a configured
 *    bound — the per-core miss windows are supposed to cap it;
 *  - at drain points (end of run) nothing is still outstanding.
 */

#ifndef CAMEO_CHECK_QUEUE_AUDITOR_HH
#define CAMEO_CHECK_QUEUE_AUDITOR_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "check/audit.hh"
#include "util/flat_map.hh"
#include "util/types.hh"

namespace cameo
{

/** Lost/duplicate/ordering auditor for pipeline transactions. */
class QueueInvariantAuditor
{
  public:
    QueueInvariantAuditor() = default;

    /**
     * Expect deliveries in nondecreasing completion-tick order (true
     * for queued timing, where the event queue fires in tick order;
     * false for blocking timing, where completions fire synchronously
     * in submission order and their ticks may interleave).
     */
    void setMonotonicDelivery(bool monotonic)
    {
        monotonicDelivery_ = monotonic;
    }

    /**
     * Cap on simultaneously outstanding requests; 0 disables the
     * check. The per-core miss windows bound occupancy at
     * cores * window in a correctly plumbed pipeline.
     */
    void setOccupancyBound(std::size_t bound) { occupancyBound_ = bound; }

    /** Request @p id entered the pipeline at @p tick. */
    void onSubmit(std::uint64_t id, Tick tick);

    /**
     * Request @p id completed (delivered) at @p tick. @p ordered marks
     * deliveries that took the event-queue path and therefore must be
     * monotone in global time; synchronous completions (blocking mode,
     * fire-and-forget writes) pass false and are exempt from — and do
     * not advance — the monotonicity watermark.
     */
    void onComplete(std::uint64_t id, Tick tick, bool ordered = true);

    /**
     * A drain point was reached (end of run): every submitted request
     * must have completed. Reports each lost request.
     */
    void checkDrained();

    /** Requests submitted but not yet completed. */
    std::size_t outstanding() const { return outstanding_.size(); }

    /** Submissions observed since construction or reset. */
    std::uint64_t submits() const { return submits_; }

    /** Completions observed since construction or reset. */
    std::uint64_t completions() const { return completions_; }

    /** Violations reported since construction or reset. */
    std::uint64_t violations() const { return violations_; }

    /** Forget all history (start of a new run). */
    void reset();

  private:
    /** Report one violation to the sink. */
    void report(const std::string &what);

    /** Open addressing: shadowing a transaction allocates nothing. */
    FlatMap<std::uint64_t, Tick> outstanding_;
    bool monotonicDelivery_ = false;
    std::size_t occupancyBound_ = 0;
    Tick lastDeliveryTick_ = 0;
    bool delivered_ = false;

    std::uint64_t submits_ = 0;
    std::uint64_t completions_ = 0;
    std::uint64_t violations_ = 0;
};

} // namespace cameo

#endif // CAMEO_CHECK_QUEUE_AUDITOR_HH
