/**
 * @file
 * Shared machinery of the snapshot differential suites: the full
 * organization matrix, byte-exact stats fingerprinting, the
 * checkpoint/resume drivers that test_snapshot.cc builds its
 * equivalence assertions from, and the single-component round-trip
 * helpers the policy and organization suites use.
 *
 * The core property pinned here: a run that is paused at an arbitrary
 * access count, snapshotted, restored into a FRESH System, and run to
 * completion must be indistinguishable — every RunResult field and
 * every registered statistic byte-identical — from the same
 * configuration run without interruption.
 */

#ifndef CAMEO_SNAPSHOT_COMMON_HH
#define CAMEO_SNAPSHOT_COMMON_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

namespace cameo::snaptest
{

/** Every organization the simulator knows, with a printable label. */
inline const std::vector<std::pair<std::string, OrgKind>> kAllOrgs{
    {"Baseline", OrgKind::Baseline},
    {"Cache", OrgKind::AlloyCache},
    {"TlmStatic", OrgKind::TlmStatic},
    {"TlmDynamic", OrgKind::TlmDynamic},
    {"TlmFreq", OrgKind::TlmFreq},
    {"TlmOracle", OrgKind::TlmOracle},
    {"DoubleUse", OrgKind::DoubleUse},
    {"Cameo", OrgKind::Cameo},
    {"CameoFreq", OrgKind::CameoFreq},
    {"Banshee", OrgKind::Banshee},
};

/** Serialize one Checkpointable into a framed snapshot blob. */
inline std::vector<std::uint8_t>
saveBytes(const Checkpointable &c)
{
    SnapshotWriter w;
    w.beginSection("component");
    c.save(w);
    w.endSection();
    return w.finish();
}

/**
 * Restore @p c from @p bytes; returns the reader's final state, and
 * (when @p error is non-null) its error message.
 */
inline bool
restoreFromBytes(Checkpointable &c, std::vector<std::uint8_t> bytes,
                 std::string *error = nullptr)
{
    SnapshotReader r;
    if (r.open(std::move(bytes))) {
        r.enterSection("component");
        c.restore(r);
        r.leaveSection();
    }
    if (error != nullptr)
        *error = r.error();
    return r.ok();
}

/** save -> restore into @p fresh -> save must be byte-identical. */
template <typename T>
void
expectRoundTripIdentical(const T &original, T &fresh)
{
    const std::vector<std::uint8_t> first = saveBytes(original);
    ASSERT_TRUE(restoreFromBytes(fresh, first));
    EXPECT_EQ(first, saveBytes(fresh));
}

/** Short traces keep the 10-org x 2-timing matrix fast. */
inline SystemConfig
snapConfig(TimingMode mode)
{
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 6'000;
    c.timingMode = mode;
    return c;
}

/**
 * Byte-exact fingerprint of a finished system: the full registered
 * stats registry in its canonical JSON rendering. Two runs whose
 * fingerprints are string-equal agree on every counter and every
 * distribution bucket.
 */
inline std::string
statsFingerprint(System &system)
{
    std::ostringstream os;
    system.stats().dumpJson(os);
    return os.str();
}

/** Assert every RunResult field matches; @p what names the run. */
inline void
expectSameResult(const RunResult &expect, const RunResult &actual,
                 const std::string &what)
{
    EXPECT_EQ(expect.execTime, actual.execTime) << what;
    EXPECT_EQ(expect.kernelSteps, actual.kernelSteps) << what;
    EXPECT_EQ(expect.truncated, actual.truncated) << what;
    EXPECT_EQ(expect.instructions, actual.instructions) << what;
    EXPECT_EQ(expect.accesses, actual.accesses) << what;
    EXPECT_EQ(expect.warmupAccesses, actual.warmupAccesses) << what;
    EXPECT_EQ(expect.l3Hits, actual.l3Hits) << what;
    EXPECT_EQ(expect.l3Misses, actual.l3Misses) << what;
    EXPECT_EQ(expect.stackedBytes, actual.stackedBytes) << what;
    EXPECT_EQ(expect.offchipBytes, actual.offchipBytes) << what;
    EXPECT_EQ(expect.storageBytes, actual.storageBytes) << what;
    EXPECT_EQ(expect.majorFaults, actual.majorFaults) << what;
    EXPECT_EQ(expect.minorFaults, actual.minorFaults) << what;
    EXPECT_EQ(expect.servicedStacked, actual.servicedStacked) << what;
    EXPECT_EQ(expect.servicedOffchip, actual.servicedOffchip) << what;
    EXPECT_EQ(expect.swaps, actual.swaps) << what;
    EXPECT_EQ(expect.llpCases, actual.llpCases) << what;
    EXPECT_EQ(expect.llpAccuracy, actual.llpAccuracy) << what;
    EXPECT_EQ(expect.pageMigrations, actual.pageMigrations) << what;
}

/** One finished run: its RunResult plus the stats fingerprint. */
struct Outcome
{
    RunResult result;
    std::string stats;
};

/** Reference: run @p kind on @p profile start to finish, no pause. */
inline Outcome
runUninterrupted(const SystemConfig &config, OrgKind kind,
                 const WorkloadProfile &profile)
{
    System system(config, kind, profile);
    Outcome out;
    out.result = system.run();
    out.stats = statsFingerprint(system);
    return out;
}

/**
 * Pause a run after @p checkpoint_at aggregate accesses and snapshot
 * it. The paused System is destroyed before this returns — the bytes
 * are all that survives, exactly like a checkpoint on disk.
 */
inline std::vector<std::uint8_t>
checkpointAt(const SystemConfig &config, OrgKind kind,
             const WorkloadProfile &profile, std::uint64_t checkpoint_at)
{
    System system(config, kind, profile);
    EXPECT_TRUE(system.runUntil(checkpoint_at))
        << "run finished before the checkpoint target "
        << checkpoint_at;
    SnapshotWriter w;
    system.save(w);
    return w.finish();
}

/** Restore @p blob into a fresh System of @p config and finish it. */
inline Outcome
resumeFrom(const std::vector<std::uint8_t> &blob,
           const SystemConfig &config, OrgKind kind,
           const WorkloadProfile &profile)
{
    System system(config, kind, profile);
    SnapshotReader r;
    EXPECT_TRUE(r.open(blob)) << r.error();
    system.restore(r);
    EXPECT_TRUE(r.ok()) << r.error();
    Outcome out;
    out.result = system.run();
    out.stats = statsFingerprint(system);
    return out;
}

/**
 * The headline differential: checkpoint at @p checkpoint_at, resume in
 * a fresh System, and require the finished run to be byte-identical to
 * the uninterrupted reference — every RunResult field and the complete
 * stats registry.
 */
inline void
expectResumeEquivalence(const SystemConfig &config, OrgKind kind,
                        const WorkloadProfile &profile,
                        std::uint64_t checkpoint_at,
                        const std::string &what)
{
    const Outcome cold = runUninterrupted(config, kind, profile);
    const std::vector<std::uint8_t> blob =
        checkpointAt(config, kind, profile, checkpoint_at);
    const Outcome resumed = resumeFrom(blob, config, kind, profile);
    expectSameResult(cold.result, resumed.result, what);
    EXPECT_EQ(cold.stats, resumed.stats)
        << what << ": stats registries differ after resume";
}

} // namespace cameo::snaptest

#endif // CAMEO_SNAPSHOT_COMMON_HH
