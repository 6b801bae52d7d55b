/**
 * @file
 * Host-side wall-clock stopwatch for sweep telemetry.
 *
 * This is the one sanctioned wall-clock in the simulator (perfbench/
 * is a separate build with its own): the sweep engine (src/exp)
 * reports per-job durations and aggregate throughput, which are
 * properties of the *host*, not of the simulation. Wall-clock
 * readings must never feed simulation state — simulated results stay
 * bit-reproducible — which is why tools/analyze bans <chrono> clocks
 * everywhere else and exempts exactly this wrapper.
 */

#ifndef CAMEO_EXP_STOPWATCH_HH
#define CAMEO_EXP_STOPWATCH_HH

#include <cstdint>

namespace cameo
{

/** Monotonic wall-clock stopwatch; starts on construction. */
class Stopwatch
{
  public:
    Stopwatch() : startNs_(nowNs()) {}

    /** Restart the elapsed-time origin. */
    void restart() { startNs_ = nowNs(); }

    /** Seconds elapsed since construction or the last restart(). */
    double seconds() const;

  private:
    static std::uint64_t nowNs();

    std::uint64_t startNs_;
};

} // namespace cameo

#endif // CAMEO_EXP_STOPWATCH_HH
