/**
 * @file
 * Differential tests of the switchable-fidelity warmup (DESIGN.md §13).
 *
 * The contract under test: a functional-fidelity warmup leaves the
 * simulated machine in EXACTLY the architectural state a full-timing
 * (detailed) warmup would — LLT permutations, predictor tables, cache
 * tags and replacement state, page tables, heat counters — so the
 * measured region that follows is indistinguishable between the two
 * policies. With one core the access interleaving is identical by
 * construction, so the equivalence is exact and provable per
 * organization by snapshot byte-identity: every section of a finished
 * system's snapshot except "meta" (which records the differing policy
 * byte) must match bit for bit.
 *
 * The functional loop itself must additionally be invariant to its
 * stream provider (arena replay is bit-identical to fresh generation).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hh"
#include "snapshot_common.hh"
#include "system/system.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace cameo
{
namespace
{

using snaptest::kAllOrgs;
using snaptest::expectSameResult;
using snaptest::statsFingerprint;

/** Warmup-heavy shape: most of the trace is warmed through, a short
 *  measured region follows. */
SystemConfig
fidelityConfig(TimingMode mode, WarmupPolicy policy)
{
    SystemConfig c = tinyConfig();
    c.timingMode = mode;
    c.warmupAccessesPerCore = 5'000;
    c.accessesPerCore = 1'000;
    c.warmupPolicy = policy;
    return c;
}

/** Snapshot a system into the framed byte buffer. */
std::vector<std::uint8_t>
saveBytes(const System &system)
{
    SnapshotWriter w;
    system.save(w);
    return w.finish();
}

/**
 * Split a framed snapshot blob into name -> payload bytes (the frame:
 * magic 8, version u32, section count u32, then per section u32 name
 * length, name, u64 payload length, u32 CRC, payload).
 */
std::map<std::string, std::vector<std::uint8_t>>
sectionsOf(const std::vector<std::uint8_t> &blob)
{
    std::map<std::string, std::vector<std::uint8_t>> out;
    const auto u32_at = [&](std::size_t at) {
        return static_cast<std::uint32_t>(blob[at]) |
               static_cast<std::uint32_t>(blob[at + 1]) << 8 |
               static_cast<std::uint32_t>(blob[at + 2]) << 16 |
               static_cast<std::uint32_t>(blob[at + 3]) << 24;
    };
    std::size_t pos = 16;
    const std::uint32_t count = u32_at(12);
    for (std::uint32_t s = 0; s < count; ++s) {
        const std::uint32_t name_len = u32_at(pos);
        pos += 4;
        std::string name(blob.begin() + pos, blob.begin() + pos + name_len);
        pos += name_len;
        std::uint64_t payload_len = 0;
        for (int i = 7; i >= 0; --i)
            payload_len = payload_len << 8 | blob[pos + i];
        pos += 8 + 4; // length + CRC
        out[std::move(name)] = std::vector<std::uint8_t>(
            blob.begin() + pos, blob.begin() + pos + payload_len);
        pos += payload_len;
    }
    EXPECT_EQ(pos, blob.size());
    return out;
}

/**
 * The headline per-org differential: a 1-core functional-warmup run
 * must finish with every RunResult field, every registered statistic,
 * and every non-meta snapshot section byte-identical to the same run
 * warmed at detailed fidelity.
 */
void
expectFunctionalMatchesDetailed(TimingMode mode)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    for (const auto &[label, kind] : kAllOrgs) {
        SCOPED_TRACE(label);

        SystemConfig functional =
            fidelityConfig(mode, WarmupPolicy::Functional);
        functional.numCores = 1;
        SystemConfig detailed = functional;
        detailed.warmupPolicy = WarmupPolicy::Detailed;

        System fast(functional, kind, wl);
        const RunResult fast_result = fast.run();
        System slow(detailed, kind, wl);
        const RunResult slow_result = slow.run();

        EXPECT_EQ(fast_result.warmupAccesses,
                  functional.warmupAccessesPerCore);
        expectSameResult(slow_result, fast_result, label);
        EXPECT_EQ(statsFingerprint(slow), statsFingerprint(fast))
            << label << ": stats registries differ";

        const auto fast_sections = sectionsOf(saveBytes(fast));
        const auto slow_sections = sectionsOf(saveBytes(slow));
        ASSERT_EQ(fast_sections.size(), slow_sections.size());
        for (const auto &[name, payload] : slow_sections) {
            if (name == "meta")
                continue; // records the (intentionally) differing policy
            const auto it = fast_sections.find(name);
            ASSERT_NE(it, fast_sections.end()) << name;
            EXPECT_TRUE(it->second == payload)
                << label << ": snapshot section '" << name
                << "' differs between functional and detailed warmup";
        }
    }
}

TEST(FidelityDifferentialTest, FunctionalMatchesDetailedBlocking)
{
    expectFunctionalMatchesDetailed(TimingMode::Blocking);
}

TEST(FidelityDifferentialTest, FunctionalMatchesDetailedQueued)
{
    expectFunctionalMatchesDetailed(TimingMode::Queued);
}

/** Arena replay must feed the functional loop the exact stream fresh
 *  generation would (the generator side bypasses the arena through
 *  SystemConfig::sourceFactory). */
TEST(FidelityFunctionalTest, StateInvariantToArenaSourcing)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    for (const auto &[label, kind] : kAllOrgs) {
        SCOPED_TRACE(label);
        const SystemConfig arena =
            fidelityConfig(TimingMode::Blocking, WarmupPolicy::Functional);
        SystemConfig generator = arena;
        generator.sourceFactory =
            [](std::uint32_t, const WorkloadProfile &profile,
               const GeneratorParams &params,
               std::uint64_t seed) -> std::unique_ptr<AccessSource> {
            return std::make_unique<SyntheticGenerator>(profile, params,
                                                        seed);
        };

        System from_generator(generator, kind, wl);
        (void)from_generator.run();
        System from_arena(arena, kind, wl);
        (void)from_arena.run();
        EXPECT_TRUE(saveBytes(from_generator) == saveBytes(from_arena))
            << label
            << ": snapshot differs between generator and arena sourcing";
    }
}

/** A warmed run is a normal run: checkpoint mid-measurement, restore
 *  into a fresh system, finish bit-identical (exercises the
 *  post-warmup trace-cursor composition in System::restore). */
TEST(FidelityCheckpointTest, ResumeEquivalenceAfterFunctionalWarmup)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    for (const TimingMode mode :
         {TimingMode::Blocking, TimingMode::Queued}) {
        const SystemConfig c =
            fidelityConfig(mode, WarmupPolicy::Functional);
        snaptest::expectResumeEquivalence(
            c, OrgKind::Cameo, wl, 800,
            mode == TimingMode::Blocking ? "cameo/blocking"
                                         : "cameo/queued");
    }
}

/** The snapshot fingerprint rejects restoring across warmup policies:
 *  the streams consumed (and state built) would silently diverge. */
TEST(FidelitySnapshotTest, PolicyMismatchIsRejected)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    const SystemConfig functional =
        fidelityConfig(TimingMode::Blocking, WarmupPolicy::Functional);
    const std::vector<std::uint8_t> blob =
        snaptest::checkpointAt(functional, OrgKind::Cameo, wl, 800);

    SystemConfig detailed = functional;
    detailed.warmupPolicy = WarmupPolicy::Detailed;
    System system(detailed, OrgKind::Cameo, wl);
    SnapshotReader r;
    ASSERT_TRUE(r.open(blob)) << r.error();
    system.restore(r);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("warmup policy mismatch"), std::string::npos)
        << r.error();
}

/** Skip stays the golden-path default: no warmup stat is registered,
 *  and the measured region is what it always was. */
TEST(FidelitySkipTest, SkipPolicyReportsNoWarmupAccesses)
{
    const WorkloadProfile &wl = *findWorkload("milc");
    SystemConfig c = fidelityConfig(TimingMode::Blocking,
                                    WarmupPolicy::Skip);
    System system(c, OrgKind::Cameo, wl);
    const RunResult r = system.run();
    EXPECT_EQ(r.warmupAccesses, 0u);
    EXPECT_EQ(system.stats().findCounter("fidelity.warmupAccesses"),
              nullptr);
}

} // namespace
} // namespace cameo
