/**
 * @file
 * Checkpoint/restore differential suite — the bit-identical-resume
 * gate.
 *
 * Three layers of defense, weakest precondition first:
 *
 *  1. Format: the frame itself. Magic/version pinning, primitive
 *     round-trips, strict section ordering, exact-consumption checks,
 *     and exhaustive single-byte corruption + every-prefix truncation
 *     fuzzing over a handcrafted snapshot — every defect must be
 *     caught, with open-time failures naming a byte offset.
 *
 *  2. System: the full simulator. Every organization x both timing
 *     modes is paused at a randomized (seeded) access count,
 *     snapshotted, restored into a FRESH System, and run to
 *     completion; the result must match the uninterrupted run on
 *     every RunResult field and the complete stats registry,
 *     byte-for-byte. Plus save->restore->save byte identity,
 *     configuration-mismatch rejections, and corruption sweeps over a
 *     real system snapshot.
 *
 *  3. Golden: a committed snapshot file (tests/golden/golden.snap)
 *     restored by every future build, pinning the on-disk format
 *     against accidental layout drift. Regenerate with
 *
 *         CAMEO_UPDATE_GOLDEN=1 ./build/tests/test_snapshot
 *
 *     and commit both golden files with the change that moved them
 *     (kSnapshotVersion must be bumped if the layout changed).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "snapshot/snapshot.hh"
#include "snapshot_common.hh"
#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

#ifndef CAMEO_GOLDEN_SNAPSHOT_PATH
#error "CAMEO_GOLDEN_SNAPSHOT_PATH must be defined by the build"
#endif
#ifndef CAMEO_GOLDEN_SNAPSHOT_STATS_PATH
#error "CAMEO_GOLDEN_SNAPSHOT_STATS_PATH must be defined by the build"
#endif

namespace cameo
{
namespace
{

using snaptest::checkpointAt;
using snaptest::expectResumeEquivalence;
using snaptest::expectSameResult;
using snaptest::kAllOrgs;
using snaptest::Outcome;
using snaptest::resumeFrom;
using snaptest::runUninterrupted;
using snaptest::snapConfig;
using snaptest::statsFingerprint;

// ---------------------------------------------------------------------
// Layer 1: the frame format.
// ---------------------------------------------------------------------

/** A small two-section snapshot exercising every primitive. */
std::vector<std::uint8_t>
handcraftedBlob()
{
    SnapshotWriter w;
    w.beginSection("alpha");
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.b(true);
    w.f64(-1234.5678);
    w.str("hello snapshot");
    w.vecU8({1, 2, 3});
    w.endSection();
    w.beginSection("beta");
    w.vecU32({10, 20, 30, 40});
    w.vecU64({1ull << 40, 2ull << 40});
    w.endSection();
    return w.finish();
}

TEST(SnapshotFormatTest, MagicAndVersionArePinned)
{
    // The on-disk format contract: changing any of these without
    // bumping kSnapshotVersion silently breaks every saved checkpoint.
    EXPECT_EQ(std::string(kSnapshotMagic, 8), "CAMEOSNP");
    EXPECT_EQ(kSnapshotVersion, 2u);

    const std::vector<std::uint8_t> blob = handcraftedBlob();
    ASSERT_GE(blob.size(), 16u);
    EXPECT_EQ(std::string(blob.begin(), blob.begin() + 8), "CAMEOSNP");
    // u32 LE version at offset 8, u32 LE section count at offset 12.
    EXPECT_EQ(blob[8], kSnapshotVersion);
    EXPECT_EQ(blob[9], 0u);
    EXPECT_EQ(blob[12], 2u);
}

TEST(SnapshotFormatTest, PrimitivesRoundTripExactly)
{
    SnapshotReader r;
    ASSERT_TRUE(r.open(handcraftedBlob())) << r.error();
    EXPECT_EQ(r.version(), kSnapshotVersion);
    ASSERT_EQ(r.sectionCount(), 2u);

    ASSERT_TRUE(r.enterSection("alpha"));
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.f64(), -1234.5678);
    EXPECT_EQ(r.str(), "hello snapshot");
    std::vector<std::uint8_t> v8;
    r.vecU8(v8);
    EXPECT_EQ(v8, (std::vector<std::uint8_t>{1, 2, 3}));
    ASSERT_TRUE(r.leaveSection());

    ASSERT_TRUE(r.enterSection("beta"));
    std::vector<std::uint32_t> v32;
    r.vecU32(v32);
    EXPECT_EQ(v32, (std::vector<std::uint32_t>{10, 20, 30, 40}));
    std::vector<std::uint64_t> v64;
    r.vecU64(v64);
    EXPECT_EQ(v64, (std::vector<std::uint64_t>{1ull << 40, 2ull << 40}));
    ASSERT_TRUE(r.leaveSection());
    EXPECT_TRUE(r.ok());
}

TEST(SnapshotFormatTest, EmptySnapshotRoundTrips)
{
    SnapshotWriter w;
    SnapshotReader r;
    EXPECT_TRUE(r.open(w.finish())) << r.error();
    EXPECT_EQ(r.sectionCount(), 0u);
}

TEST(SnapshotFormatTest, SectionOrderIsEnforced)
{
    SnapshotReader r;
    ASSERT_TRUE(r.open(handcraftedBlob()));
    // Sections must be entered in written order: beta before alpha
    // fails, and the error names both sections.
    EXPECT_FALSE(r.enterSection("beta"));
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("order mismatch"), std::string::npos)
        << r.error();
    EXPECT_NE(r.error().find("alpha"), std::string::npos) << r.error();
}

TEST(SnapshotFormatTest, UnderconsumptionIsRejected)
{
    SnapshotReader r;
    ASSERT_TRUE(r.open(handcraftedBlob()));
    ASSERT_TRUE(r.enterSection("alpha"));
    r.u8(); // Leave most of the payload unread.
    EXPECT_FALSE(r.leaveSection());
    EXPECT_NE(r.error().find("unread bytes"), std::string::npos)
        << r.error();
}

TEST(SnapshotFormatTest, OverreadIsRejectedAndErrorIsSticky)
{
    SnapshotWriter w;
    w.beginSection("tiny");
    w.u16(7);
    w.endSection();
    SnapshotReader r;
    ASSERT_TRUE(r.open(w.finish()));
    ASSERT_TRUE(r.enterSection("tiny"));
    EXPECT_EQ(r.u16(), 7u);
    EXPECT_EQ(r.u64(), 0u); // Past the end: zero, error latched.
    EXPECT_FALSE(r.ok());
    const std::string first = r.error();
    EXPECT_NE(first.find("truncated"), std::string::npos) << first;
    // The FIRST failure wins; later reads stay zero and keep it.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.error(), first);
}

TEST(SnapshotFormatTest, VersionSkewIsRejected)
{
    std::vector<std::uint8_t> blob = handcraftedBlob();
    blob[8] = kSnapshotVersion + 1; // Patch the LE version field.
    SnapshotReader r;
    EXPECT_FALSE(r.open(blob));
    EXPECT_NE(r.error().find("version"), std::string::npos) << r.error();
}

TEST(SnapshotFormatTest, TrailingGarbageIsRejected)
{
    std::vector<std::uint8_t> blob = handcraftedBlob();
    blob.push_back(0x5A);
    SnapshotReader r;
    EXPECT_FALSE(r.open(blob));
    EXPECT_NE(r.error().find("trailing"), std::string::npos)
        << r.error();
    EXPECT_NE(r.error().find("offset"), std::string::npos) << r.error();
}

TEST(SnapshotFormatTest, EveryTruncationLengthIsRejected)
{
    const std::vector<std::uint8_t> blob = handcraftedBlob();
    for (std::size_t len = 0; len < blob.size(); ++len) {
        SnapshotReader r;
        const std::vector<std::uint8_t> prefix(blob.begin(),
                                               blob.begin() + len);
        EXPECT_FALSE(r.open(prefix))
            << "prefix of " << len << " bytes opened successfully";
        EXPECT_FALSE(r.error().empty()) << "prefix of " << len;
    }
}

/**
 * Byte ranges holding section names: the only frame bytes not covered
 * by a payload CRC. Walked with the same layout open() uses.
 */
std::vector<std::pair<std::size_t, std::size_t>>
sectionNameRanges(const std::vector<std::uint8_t> &blob)
{
    const auto u32At = [&](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     blob[at + static_cast<std::size_t>(i)])
                 << (8 * i);
        return v;
    };
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    const std::uint32_t count = u32At(12);
    std::size_t at = 16;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t nameLen = u32At(at);
        at += 4;
        ranges.emplace_back(at, at + nameLen);
        at += nameLen;
        const std::uint64_t len =
            u32At(at) | (static_cast<std::uint64_t>(u32At(at + 4)) << 32);
        at += 12 + static_cast<std::size_t>(len);
    }
    EXPECT_EQ(at, blob.size());
    return ranges;
}

bool
inNameRange(
    const std::vector<std::pair<std::size_t, std::size_t>> &ranges,
    std::size_t i)
{
    for (const auto &[begin, end] : ranges)
        if (i >= begin && i < end)
            return true;
    return false;
}

TEST(SnapshotFormatTest, EverySingleByteCorruptionIsCaught)
{
    const std::vector<std::uint8_t> blob = handcraftedBlob();
    const auto nameRanges = sectionNameRanges(blob);
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::vector<std::uint8_t> bad = blob;
        bad[i] ^= 0xFF;
        SnapshotReader r;
        const bool opened = r.open(bad);
        if (inNameRange(nameRanges, i)) {
            // Name bytes carry no CRC: the flip surfaces as an
            // order/name mismatch on first section entry instead.
            if (opened) {
                EXPECT_FALSE(r.enterSection("alpha") &&
                             r.leaveSection() &&
                             r.enterSection("beta"))
                    << "flip of name byte " << i << " went unnoticed";
            }
            EXPECT_FALSE(r.ok()) << "flip at offset " << i;
        } else {
            EXPECT_FALSE(opened)
                << "flip at offset " << i << " opened successfully";
            EXPECT_NE(r.error().find("offset"), std::string::npos)
                << "flip at offset " << i
                << ": error lacks a byte offset: " << r.error();
        }
    }
}

TEST(SnapshotFormatTest, FileRoundTripAndMissingFile)
{
    const std::string path =
        testing::TempDir() + "/cameo_snapshot_roundtrip.snap";
    SnapshotWriter w;
    w.beginSection("alpha");
    w.u64(42);
    w.endSection();
    std::string error;
    ASSERT_TRUE(w.writeFile(path, &error)) << error;

    SnapshotReader r;
    ASSERT_TRUE(r.openFile(path)) << r.error();
    ASSERT_TRUE(r.enterSection("alpha"));
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_TRUE(r.leaveSection());
    std::remove(path.c_str());

    SnapshotReader missing;
    EXPECT_FALSE(missing.openFile(path + ".does-not-exist"));
    EXPECT_NE(missing.error().find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------
// Layer 2: full-system resume equivalence.
// ---------------------------------------------------------------------

using OrgTimingParam =
    std::tuple<std::pair<std::string, OrgKind>, TimingMode>;

class ResumeEquivalenceTest
    : public testing::TestWithParam<OrgTimingParam>
{
};

TEST_P(ResumeEquivalenceTest, FinishesBitIdenticalToUninterruptedRun)
{
    const auto &[org, mode] = GetParam();
    const SystemConfig config = snapConfig(mode);
    const WorkloadProfile &wl = *findWorkload("milc");

    // Randomized (but seeded, hence reproducible) checkpoint position
    // in the middle 60% of the run: every org pauses somewhere else.
    const std::uint64_t aggregate =
        config.accessesPerCore * config.numCores;
    Rng rng(0xC0FFEEu +
            static_cast<std::uint64_t>(org.second) * 2 +
            (mode == TimingMode::Queued ? 1 : 0));
    const std::uint64_t checkpoint_at =
        aggregate / 5 + rng.next(3 * aggregate / 5);

    expectResumeEquivalence(
        config, org.second, wl, checkpoint_at,
        org.first + "/milc checkpoint@" +
            std::to_string(checkpoint_at));
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, ResumeEquivalenceTest,
    testing::Combine(testing::ValuesIn(snaptest::kAllOrgs),
                     testing::Values(TimingMode::Blocking,
                                     TimingMode::Queued)),
    [](const testing::TestParamInfo<OrgTimingParam> &info) {
        return std::get<0>(info.param).first +
               (std::get<1>(info.param) == TimingMode::Queued
                    ? "_Queued"
                    : "_Blocking");
    });

TEST(SnapshotSystemTest, ResumeEquivalenceAcrossWorkloadsAndSeeds)
{
    // A second workload and a non-default seed, on a representative
    // org subset (the full matrix runs above on milc).
    const WorkloadProfile &wl = *findWorkload("mcf");
    for (const OrgKind kind :
         {OrgKind::Baseline, OrgKind::Cameo, OrgKind::TlmFreq}) {
        for (const std::uint64_t seed : {7ull, 1234567ull}) {
            SystemConfig config = snapConfig(TimingMode::Blocking);
            config.seed = seed;
            expectResumeEquivalence(config, kind, wl, 4'321,
                                    "mcf seed " + std::to_string(seed));
        }
    }
}

TEST(SnapshotSystemTest, ResumeEquivalenceWithWarmup)
{
    // --warmup fast-forwards the source before measurement; the
    // restored source must land on warmup + processed, not 0 +
    // processed.
    SystemConfig config = snapConfig(TimingMode::Queued);
    config.warmupAccessesPerCore = 2'000;
    expectResumeEquivalence(config, OrgKind::Cameo,
                            *findWorkload("milc"), 5'000,
                            "warmed-up CAMEO");
}

TEST(SnapshotSystemTest, SaveRestoreSaveIsByteIdentical)
{
    // The round-trip property: restoring a snapshot and immediately
    // re-saving must reproduce the exact bytes — any drift means some
    // component's restore() is not the inverse of its save().
    for (const TimingMode mode :
         {TimingMode::Blocking, TimingMode::Queued}) {
        for (const OrgKind kind : {OrgKind::AlloyCache, OrgKind::Cameo,
                                   OrgKind::TlmDynamic}) {
            const SystemConfig config = snapConfig(mode);
            const WorkloadProfile &wl = *findWorkload("milc");
            const std::vector<std::uint8_t> first =
                checkpointAt(config, kind, wl, 6'000);

            System resumed(config, kind, wl);
            SnapshotReader r;
            ASSERT_TRUE(r.open(first)) << r.error();
            resumed.restore(r);
            ASSERT_TRUE(r.ok()) << r.error();

            SnapshotWriter w;
            resumed.save(w);
            const std::vector<std::uint8_t> second = w.finish();
            EXPECT_EQ(first, second)
                << orgKindName(kind) << (mode == TimingMode::Queued
                                             ? " (Queued)"
                                             : " (Blocking)")
                << ": re-saved snapshot differs";
        }
    }
}

TEST(SnapshotSystemTest, SectionInventoryIsStable)
{
    const SystemConfig config = snapConfig(TimingMode::Blocking);
    const std::vector<std::uint8_t> blob = checkpointAt(
        config, OrgKind::Cameo, *findWorkload("milc"), 3'000);
    SnapshotReader r;
    ASSERT_TRUE(r.open(blob)) << r.error();
    // meta, stats, vm, llc, core.0..N-1, org.
    EXPECT_EQ(r.sectionCount(), 5u + config.numCores);
}

TEST(SnapshotSystemTest, SystemSnapshotCorruptionIsNeverSilent)
{
    // Sampled single-byte flips over a REAL system snapshot: each must
    // fail at open (CRC/framing) or at restore (semantic check); none
    // may slip through into a successfully restored system.
    const SystemConfig config = snapConfig(TimingMode::Queued);
    const WorkloadProfile &wl = *findWorkload("milc");
    const std::vector<std::uint8_t> blob =
        checkpointAt(config, OrgKind::Cameo, wl, 4'000);

    Rng rng(42);
    std::vector<std::size_t> offsets;
    for (std::size_t i = 0; i < 64; ++i) // Whole header + early table.
        offsets.push_back(i);
    for (std::size_t i = 0; i < 256; ++i) // Sampled payload bytes.
        offsets.push_back(
            static_cast<std::size_t>(rng.next(blob.size())));

    for (const std::size_t at : offsets) {
        std::vector<std::uint8_t> bad = blob;
        bad[at] ^= 0xFF;
        SnapshotReader r;
        if (!r.open(bad)) {
            EXPECT_NE(r.error().find("offset"), std::string::npos)
                << "flip at " << at << ": " << r.error();
            continue;
        }
        System system(config, OrgKind::Cameo, wl);
        system.restore(r);
        EXPECT_FALSE(r.ok())
            << "flip at offset " << at
            << " restored without any error";
    }
}

/** Snapshot of a small CAMEO run, shared by the rejection tests. */
const std::vector<std::uint8_t> &
mismatchBlob()
{
    static const std::vector<std::uint8_t> blob = checkpointAt(
        snapConfig(TimingMode::Blocking), OrgKind::Cameo,
        *findWorkload("milc"), 3'000);
    return blob;
}

/** Expect restore into (config, kind) to fail mentioning @p token. */
void
expectRestoreRejected(const SystemConfig &config, OrgKind kind,
                      const std::string &token)
{
    System system(config, kind, *findWorkload("milc"));
    SnapshotReader r;
    ASSERT_TRUE(r.open(mismatchBlob())) << r.error();
    system.restore(r);
    EXPECT_FALSE(r.ok()) << "mismatched restore was accepted";
    EXPECT_NE(r.error().find(token), std::string::npos)
        << "error does not mention '" << token << "': " << r.error();
}

TEST(SnapshotRejectionTest, WrongOrganizationIsRejected)
{
    expectRestoreRejected(snapConfig(TimingMode::Blocking),
                          OrgKind::Baseline, "organization");
}

TEST(SnapshotRejectionTest, WrongSeedIsRejected)
{
    SystemConfig config = snapConfig(TimingMode::Blocking);
    config.seed += 1;
    expectRestoreRejected(config, OrgKind::Cameo, "seed");
}

TEST(SnapshotRejectionTest, WrongCoreCountIsRejected)
{
    SystemConfig config = snapConfig(TimingMode::Blocking);
    config.numCores += 1;
    expectRestoreRejected(config, OrgKind::Cameo, "core");
}

TEST(SnapshotRejectionTest, WrongTimingModeIsRejected)
{
    expectRestoreRejected(snapConfig(TimingMode::Queued), OrgKind::Cameo,
                          "timing");
}

TEST(SnapshotRejectionTest, WrongWorkloadIsRejected)
{
    System system(snapConfig(TimingMode::Blocking), OrgKind::Cameo,
                  *findWorkload("mcf"));
    SnapshotReader r;
    ASSERT_TRUE(r.open(mismatchBlob())) << r.error();
    system.restore(r);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("workload"), std::string::npos)
        << r.error();
}

TEST(SnapshotRejectionTest, ShorterRunIsRejected)
{
    // The snapshot was taken 3000 accesses into a 12000-access run; a
    // 2000-access config cannot contain it.
    SystemConfig config = snapConfig(TimingMode::Blocking);
    config.accessesPerCore = 1'000;
    expectRestoreRejected(config, OrgKind::Cameo, "longer");
}

TEST(SnapshotSystemTest, LongerRunAcceptsPrefixSnapshot)
{
    // The prefix-reuse contract behind cameo-sim --restore with a
    // larger --accesses: a snapshot taken before any core finished
    // restores into a config that only ENLARGES the trace, and the
    // resumed run is bit-identical to a cold run of the longer config.
    SystemConfig config = snapConfig(TimingMode::Blocking);
    config.accessesPerCore += 2'000;
    const WorkloadProfile &wl = *findWorkload("milc");
    const Outcome cold = runUninterrupted(config, OrgKind::Cameo, wl);
    const Outcome resumed =
        resumeFrom(mismatchBlob(), config, OrgKind::Cameo, wl);
    EXPECT_EQ(resumed.result.accesses,
              config.accessesPerCore * config.numCores);
    expectSameResult(cold.result, resumed.result, "prefix-restored CAMEO");
    EXPECT_EQ(cold.stats, resumed.stats)
        << "stats registries differ after a prefix restore";
}

// ---------------------------------------------------------------------
// Layer 3: the committed golden snapshot.
// ---------------------------------------------------------------------

/**
 * The golden scenario, pinned independently of snapConfig so matrix
 * tweaks cannot silently move the committed bytes: CAMEO on milc,
 * Queued timing (the mode with in-flight pipeline state), paused at
 * 5000 of 12000 aggregate accesses.
 */
SystemConfig
goldenSnapshotConfig()
{
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 6'000;
    c.timingMode = TimingMode::Queued;
    return c;
}

constexpr std::uint64_t kGoldenCheckpointAt = 5'000;

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Write @p data to @p path (for CAMEO_UPDATE_GOLDEN / CI artifacts). */
void
writeWholeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << data;
    out.close();
    ASSERT_FALSE(out.fail()) << "short write to " << path;
}

TEST(GoldenSnapshotTest, RegeneratedSnapshotIsByteIdentical)
{
    const std::vector<std::uint8_t> blob =
        checkpointAt(goldenSnapshotConfig(), OrgKind::Cameo,
                     *findWorkload("milc"), kGoldenCheckpointAt);
    const std::string actual(blob.begin(), blob.end());

    if (std::getenv("CAMEO_UPDATE_GOLDEN") != nullptr) {
        writeWholeFile(CAMEO_GOLDEN_SNAPSHOT_PATH, actual);
        GTEST_SKIP() << "rewrote " << CAMEO_GOLDEN_SNAPSHOT_PATH
                     << "; commit it (and bump kSnapshotVersion if the "
                        "layout changed)";
    }

    const std::string golden = readWholeFile(CAMEO_GOLDEN_SNAPSHOT_PATH);
    ASSERT_FALSE(golden.empty())
        << "missing " << CAMEO_GOLDEN_SNAPSHOT_PATH
        << " (regenerate with CAMEO_UPDATE_GOLDEN=1)";
    if (golden != actual) {
        // Leave the regenerated bytes next to the build for the CI
        // golden-restore leg to upload as a diff artifact.
        writeWholeFile("golden_snapshot.actual.snap", actual);
        std::size_t at = 0;
        while (at < golden.size() && at < actual.size() &&
               golden[at] == actual[at]) {
            ++at;
        }
        FAIL() << "regenerated snapshot differs from "
               << CAMEO_GOLDEN_SNAPSHOT_PATH << ": sizes "
               << golden.size() << " vs " << actual.size()
               << ", first difference at offset " << at
               << ". If intentional, bump kSnapshotVersion, regenerate "
                  "with CAMEO_UPDATE_GOLDEN=1, and commit.";
    }
}

TEST(GoldenSnapshotTest, RestoredGoldenFinishesWithGoldenStats)
{
    const SystemConfig config = goldenSnapshotConfig();
    const WorkloadProfile &wl = *findWorkload("milc");

    if (std::getenv("CAMEO_UPDATE_GOLDEN") != nullptr) {
        const std::vector<std::uint8_t> blob = checkpointAt(
            config, OrgKind::Cameo, wl, kGoldenCheckpointAt);
        const Outcome resumed =
            resumeFrom(blob, config, OrgKind::Cameo, wl);
        writeWholeFile(CAMEO_GOLDEN_SNAPSHOT_STATS_PATH, resumed.stats);
        GTEST_SKIP() << "rewrote " << CAMEO_GOLDEN_SNAPSHOT_STATS_PATH
                     << "; commit it with the change that moved the "
                        "numbers";
    }

    // Restore the COMMITTED file — this is the cross-build format
    // gate: a snapshot written by any past build of the same version
    // must restore and finish with exactly the committed stats.
    System system(config, OrgKind::Cameo, wl);
    SnapshotReader r;
    ASSERT_TRUE(r.openFile(CAMEO_GOLDEN_SNAPSHOT_PATH))
        << r.error() << " (regenerate with CAMEO_UPDATE_GOLDEN=1)";
    system.restore(r);
    ASSERT_TRUE(r.ok()) << r.error();
    system.run();
    const std::string actual = statsFingerprint(system);

    const std::string golden =
        readWholeFile(CAMEO_GOLDEN_SNAPSHOT_STATS_PATH);
    ASSERT_FALSE(golden.empty())
        << "missing " << CAMEO_GOLDEN_SNAPSHOT_STATS_PATH
        << " (regenerate with CAMEO_UPDATE_GOLDEN=1)";
    if (golden != actual) {
        writeWholeFile("golden_snapshot_stats.actual.json", actual);
        FAIL() << "stats after restoring the committed golden snapshot "
                  "drifted from "
               << CAMEO_GOLDEN_SNAPSHOT_STATS_PATH
               << " (regenerated copy written to "
                  "golden_snapshot_stats.actual.json). If intentional, "
                  "regenerate with CAMEO_UPDATE_GOLDEN=1 and commit.";
    }
}

} // namespace
} // namespace cameo
