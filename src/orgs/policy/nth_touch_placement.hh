/**
 * @file
 * Nth-touch migrate placement, extracted from the old TlmDynamicOrg
 * (the paper's TLM-Dynamic, Section II-C).
 *
 * On the Nth access to a page resident off-chip, swap that 4KB page
 * with a not-recently-used victim in stacked memory. Each swap costs
 * 16KB of memory activity — the bandwidth bloat that makes TLM-Dynamic
 * lose to CAMEO on workloads with poor within-page locality.
 */

#ifndef CAMEO_ORGS_POLICY_NTH_TOUCH_PLACEMENT_HH
#define CAMEO_ORGS_POLICY_NTH_TOUCH_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "orgs/policy/placement_policy.hh"
#include "orgs/policy/policy_config.hh"
#include "util/rng.hh"

namespace cameo
{

/** Swap-on-Nth-touch page migration with approximate-LRU victims. */
class NthTouchMigratePlacement final : public PagePlacementPolicy
{
  public:
    NthTouchMigratePlacement(std::uint64_t stacked_pages,
                             std::uint64_t total_pages,
                             const MigratePolicyConfig &config,
                             std::uint64_t seed);

    const char *policyName() const override { return "nth-touch-migrate"; }

    void onAccess(PlacementContext &ctx, Tick when, PageAddr phys_page,
                  std::uint64_t device_page, bool is_write) override;

    /** Checkpointable: LRU stamps, touch counters, RNG, sequence. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    /** Approximate-LRU victim: oldest of N random stacked pages. */
    std::uint64_t selectVictim();

    /**
     * Recency is tracked in access-sequence numbers, not ticks: the
     * OS's notion of "not recently used" is about reference order, and
     * sequence stamps make victim selection identical across timing
     * modes and fidelities (DESIGN.md §13) — tick stamps would tie
     * within a batch and diverge between Blocking and Queued runs.
     */
    std::vector<std::uint64_t> stackedLastUse_; ///< Per stacked dev page.
    std::vector<std::uint8_t> touchCount_; ///< Per OS page, saturating.
    std::uint64_t stackedPages_;
    std::uint32_t victimProbes_;
    std::uint32_t migrateThreshold_;
    Rng rng_;
    std::uint64_t accessSeq_ = 0; ///< Demand accesses observed so far.
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_NTH_TOUCH_PLACEMENT_HH
