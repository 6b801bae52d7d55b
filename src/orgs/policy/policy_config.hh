/**
 * @file
 * Per-policy configuration sub-structs for OrgConfig.
 *
 * Each composable policy family gets its own config struct with a
 * validate() method returning nullptr on success or a static message
 * describing the first violated constraint. OrgConfig aggregates them;
 * makeOrganization() and the CLI validate before construction so a bad
 * design point is a reportable error, not an assert deep in a ctor.
 */

#ifndef CAMEO_ORGS_POLICY_POLICY_CONFIG_HH
#define CAMEO_ORGS_POLICY_POLICY_CONFIG_HH

#include <cstdint>

#include "core/line_location_predictor.hh"
#include "core/line_location_table.hh"

namespace cameo
{

/** CAMEO design point (Figures 9 and 12). */
struct LltPolicyConfig
{
    LltKind kind = LltKind::CoLocated;
    PredictorKind predictor = PredictorKind::Llp;
    std::uint32_t llpTableEntries = 256;

    /** nullptr if valid, else a static description of the violation. */
    const char *validate() const
    {
        if (llpTableEntries == 0)
            return "llt.llpTableEntries must be nonzero";
        return nullptr;
    }
};

/** Epoch-based frequency policies (TLM-Freq, CAMEO-Freq, Banshee). */
struct FreqPolicyConfig
{
    /** Epoch length in demand accesses. */
    std::uint64_t epochAccesses = 64 * 1024;

    const char *validate() const
    {
        if (epochAccesses == 0)
            return "freq.epochAccesses must be nonzero";
        return nullptr;
    }
};

/** Touch-count page-migration policy (TLM-Dynamic). */
struct MigratePolicyConfig
{
    /** Victim probes per migration (approximate-LRU width). */
    std::uint32_t victimProbes = 8;

    /**
     * Migration hysteresis: an off-chip page migrates into stacked
     * memory on its Nth access while off-chip. 1 = migrate on first
     * touch (maximally aggressive); 2 filters one-touch pages, the
     * standard OS guard against migration thrash.
     */
    std::uint32_t migrateThreshold = 2;

    const char *validate() const
    {
        if (victimProbes == 0)
            return "migrate.victimProbes must be nonzero";
        if (migrateThreshold == 0)
            return "migrate.migrateThreshold must be nonzero";
        return nullptr;
    }
};

/** Banshee-style PTE-cached mapping + sampling-counter placement. */
struct BansheePolicyConfig
{
    /**
     * Frequency counters increment on one in @p sampleRate accesses
     * (Banshee's sampling counters): replacement decisions are made in
     * the sampled-count domain, cutting counter-update traffic.
     */
    std::uint32_t sampleRate = 32;

    /**
     * A page migrates into stacked memory when its sampled count
     * exceeds the probed victim's by more than this margin.
     */
    std::uint32_t hotThreshold = 2;

    /** Victim probes per admission check. */
    std::uint32_t victimProbes = 8;

    /** Per-core direct-mapped PTE-cache slots (power of two). */
    std::uint32_t pteCacheEntries = 128;

    const char *validate() const
    {
        if (sampleRate == 0)
            return "banshee.sampleRate must be nonzero";
        if (victimProbes == 0)
            return "banshee.victimProbes must be nonzero";
        if (pteCacheEntries == 0 ||
            (pteCacheEntries & (pteCacheEntries - 1)) != 0)
            return "banshee.pteCacheEntries must be a nonzero power of two";
        return nullptr;
    }
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_POLICY_CONFIG_HH
