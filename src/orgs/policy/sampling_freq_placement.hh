/**
 * @file
 * Sampling-counter frequency placement for Banshee (Yu et al., MICRO
 * 2017).
 *
 * Banshee's bandwidth efficiency comes from making replacement *rare*
 * and *cheap to decide*: page access counters are updated on a sampled
 * subset of accesses (one in sampleRate), and an off-chip page is
 * admitted into stacked DRAM only when its sampled count exceeds a
 * probed victim's by a margin — so streaming pages never earn a
 * migration and the 16KB-per-swap replacement traffic that bloats
 * TLM-Dynamic and CAMEO's per-access swaps largely disappears.
 *
 * No decision reads a tick: the RNG is drawn once per access for the
 * sampling decision and for probes only on sampled off-chip accesses,
 * so counters, migrations and mapping state evolve bit-identically in
 * the functional warmup and in detailed runs (DESIGN.md §13).
 */

#ifndef CAMEO_ORGS_POLICY_SAMPLING_FREQ_PLACEMENT_HH
#define CAMEO_ORGS_POLICY_SAMPLING_FREQ_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "orgs/policy/placement_policy.hh"
#include "orgs/policy/policy_config.hh"
#include "util/rng.hh"

namespace cameo
{

/** Frequency-based admission with sampled counters (Banshee). */
class SamplingFrequencyPlacement final : public PagePlacementPolicy
{
  public:
    SamplingFrequencyPlacement(std::uint64_t stacked_pages,
                               std::uint64_t total_pages,
                               const BansheePolicyConfig &config,
                               std::uint64_t epoch_accesses,
                               std::uint64_t seed);

    const char *policyName() const override { return "sampling-frequency"; }

    void onAccess(PlacementContext &ctx, Tick when, PageAddr phys_page,
                  std::uint64_t device_page, bool is_write) override;

    void registerStats(StatRegistry &registry) override;

    const Counter &counterUpdates() const { return counterUpdates_; }

    /** Checkpointable: sampled counters, RNG, epoch progress. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    /** Coldest of victimProbes_ random stacked device pages. */
    std::uint64_t selectVictim(PlacementContext &ctx);

    /** Sampled access counts, per OS-physical page (epoch-decayed). */
    std::vector<std::uint32_t> count_;

    std::uint64_t stackedPages_;
    std::uint32_t sampleRate_;
    std::uint32_t hotThreshold_;
    std::uint32_t victimProbes_;
    std::uint64_t epochLength_;
    std::uint64_t accessesThisEpoch_ = 0;
    Rng rng_;

    Counter counterUpdates_;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_SAMPLING_FREQ_PLACEMENT_HH
