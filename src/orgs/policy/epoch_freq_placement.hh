/**
 * @file
 * Epoch-frequency placement, extracted from the old TlmFreqOrg (the
 * paper's TLM-Freq, Section VI-D): hardware tracks page access
 * frequency; the OS periodically migrates the hottest pages into
 * stacked memory.
 *
 * Per the paper we ignore TLB-shootdown and software sorting overheads
 * but fully model the page-transfer bandwidth. Counters decay by half
 * each epoch so the placement tracks phase changes.
 */

#ifndef CAMEO_ORGS_POLICY_EPOCH_FREQ_PLACEMENT_HH
#define CAMEO_ORGS_POLICY_EPOCH_FREQ_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "orgs/policy/placement_policy.hh"

namespace cameo
{

/** Epoch-based frequency-directed page placement. */
class EpochFrequencyPlacement final : public PagePlacementPolicy
{
  public:
    EpochFrequencyPlacement(std::uint64_t stacked_pages,
                            std::uint64_t total_pages,
                            std::uint64_t epoch_accesses);

    const char *policyName() const override { return "epoch-frequency"; }

    const Counter &epochs() const { return epochs_; }

    void onAccess(PlacementContext &ctx, Tick when, PageAddr phys_page,
                  std::uint64_t device_page, bool is_write) override;

    /**
     * Checkpointable: epoch progress and per-page access counters. The
     * epoch counter is intentionally unregistered (bench-local
     * telemetry), so its value travels here rather than in the
     * snapshot's stats section.
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    /** Re-place pages at an epoch boundary; bill migration traffic. */
    void rebalance(PlacementContext &ctx, Tick when);

    std::uint64_t stackedPages_;
    std::uint64_t totalPages_;
    std::uint64_t epochLength_;
    std::uint64_t accessesThisEpoch_ = 0;
    std::vector<std::uint32_t> pageCount_; ///< Per OS-physical page.

    Counter epochs_;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_EPOCH_FREQ_PLACEMENT_HH
