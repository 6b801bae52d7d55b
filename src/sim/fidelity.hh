/**
 * @file
 * Simulation fidelity axis (DESIGN.md §13).
 *
 * The simulator runs in one of two fidelities, after gem5's
 * simple_switchable_processor pattern:
 *
 *  - Fidelity::Detailed — the full timing model: DRAM bank/bus
 *    reservations, queue occupancy, SimKernel event scheduling, core
 *    clocks and miss windows. This is the only mode in which timing
 *    statistics (execTime, latencies, queue depths) are defined.
 *  - Fidelity::Functional — architectural state only: LLT swaps and
 *    permutations, LLP training, page-table/frame allocation, cache
 *    tag arrays and replacement state, TLM heat counters and RNG
 *    draws all advance exactly as in detailed mode, but no DRAM
 *    timing, no queues, and no kernel events. Roughly an order of
 *    magnitude faster per access; used to fast-forward warmup.
 *
 * The choice is one switch, MemoryOrganization::setFidelity(), which
 * makes the organization's DRAM modules untimed: every request returns
 * its issue tick without touching the timing model. No access routine
 * takes the fidelity, so each organization and policy has a single
 * path and the functional state updates equal the detailed ones by
 * construction.
 *
 * WarmupPolicy selects how System spends warmupAccessesPerCore before
 * the measured region: Skip discards the records without touching any
 * state (the pre-PR-8 behaviour), Functional replays them through the
 * functional path, and Detailed runs them through the full timing
 * model (the reference the differential tests compare against).
 */

#ifndef CAMEO_SIM_FIDELITY_HH
#define CAMEO_SIM_FIDELITY_HH

namespace cameo
{

/** Simulation fidelity of an organization's DRAM modules. */
enum class Fidelity
{
    Functional, ///< Architectural state only; no timing, no events.
    Detailed,   ///< Full timing model.
};

/** How System treats the warmup prefix of each core's stream. */
enum class WarmupPolicy
{
    Skip,       ///< Fast-forward the trace cursor; state stays cold.
    Functional, ///< Warm state through the functional path.
    Detailed,   ///< Warm state through the full timing model.
};

/** Stable lower-case name, e.g. for CLI parsing and bench JSON. */
inline const char *
warmupPolicyName(WarmupPolicy policy)
{
    switch (policy) {
    case WarmupPolicy::Skip:
        return "skip";
    case WarmupPolicy::Functional:
        return "functional";
    case WarmupPolicy::Detailed:
        return "detailed";
    }
    return "?";
}

} // namespace cameo

#endif // CAMEO_SIM_FIDELITY_HH
