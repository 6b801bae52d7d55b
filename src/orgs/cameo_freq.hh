/**
 * @file
 * CAMEO + frequency hints — the extension the paper sketches in the
 * last paragraph of Section VI-D: "if page frequency information is
 * available, CAMEO can retain lines from only heavily used pages in
 * stacked DRAM."
 *
 * Composition: llt-line-swap mapping (CameoController's fused hot
 * path) x freq-admission placement. The extracted
 * FreqAdmissionPlacement maintains the epoch-decayed page-access
 * counters and feeds CAMEO's swap admission: lines of pages that have
 * not yet proven hot are serviced from off-chip memory *in place* — no
 * swap, no victim write. Everything else is stock CAMEO.
 */

#ifndef CAMEO_ORGS_CAMEO_FREQ_HH
#define CAMEO_ORGS_CAMEO_FREQ_HH

#include "orgs/cameo_org.hh"
#include "orgs/policy/freq_admission_placement.hh"

namespace cameo
{

/** CAMEO with frequency-directed swap admission. */
class CameoFreqOrg : public CameoOrg
{
  public:
    /** Page touches within the decay window required to admit swaps. */
    static constexpr std::uint32_t kHotThreshold =
        FreqAdmissionPlacement::kHotThreshold;

    explicit CameoFreqOrg(const OrgConfig &config);

    Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core, Fidelity fidelity) override;

    void registerStats(StatRegistry &registry) override;

    const Counter &hotPages() const { return filter_.hotPages(); }

    /** Checkpointable: CAMEO state + the admission filter's counters. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    /** The admission policy (owns counters, epoch decay, stats). */
    FreqAdmissionPlacement filter_;
};

} // namespace cameo

#endif // CAMEO_ORGS_CAMEO_FREQ_HH
