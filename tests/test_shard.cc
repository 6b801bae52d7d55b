/**
 * @file
 * Unit and property tests for the sharded-sweep building blocks:
 * mergeable statistics (Counter, Distribution, RunResult), the
 * deterministic shard planner, and the framed result stream.
 *
 * The Distribution::merge property tests are the heart: merging the
 * distributions of any random partition of a sample stream must equal
 * the distribution of the unsplit stream — exactly, including
 * percentiles, because percentile() is a pure function of the merged
 * state. All fixtures are prefixed "Shard" so CI's tsan leg can select
 * them by name.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/result_frame.hh"
#include "exp/shard_plan.hh"
#include "snapshot/frame.hh"
#include "stats/counter.hh"
#include "stats/distribution.hh"
#include "system/system.hh"
#include "util/rng.hh"

namespace
{

using namespace cameo;

void
expectSameDistribution(const Distribution &a, const Distribution &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.minValue(), b.minValue());
    EXPECT_EQ(a.maxValue(), b.maxValue());
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.buckets(), b.buckets());
    // Same state, same pure function: percentiles match exactly, not
    // approximately.
    for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(a.percentile(p), b.percentile(p));
}

TEST(ShardDistributionMerge, RandomPartitionsEqualUnsplit)
{
    // Many (seed, parts) combinations; each draws a sample stream with
    // deliberate overflow values, splits it into K random parts, and
    // checks merge-of-parts == unsplit.
    for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        for (const std::size_t parts : {2u, 3u, 8u}) {
            Rng rng(seed);
            const std::size_t samples = 500 + rng.next(500);

            Distribution whole("whole", "", 10, 32);
            std::vector<Distribution> split;
            for (std::size_t i = 0; i < parts; ++i)
                split.emplace_back("part", "", 10, 32);

            for (std::size_t i = 0; i < samples; ++i) {
                // ~1 in 8 samples lands in the overflow bucket
                // (>= 10 * 32).
                const std::uint64_t value =
                    rng.chance(0.125) ? 320 + rng.next(1000)
                                      : rng.next(320);
                whole.sample(value);
                split[rng.next(parts)].sample(value);
            }

            Distribution merged("merged", "", 10, 32);
            for (const Distribution &part : split)
                ASSERT_TRUE(merged.merge(part));
            expectSameDistribution(merged, whole);
        }
    }
}

TEST(ShardDistributionMerge, EmptyOperandIsIdentity)
{
    Distribution filled("filled", "", 5, 8);
    for (const std::uint64_t v : {3u, 17u, 99u})
        filled.sample(v);
    const std::uint64_t count = filled.count();
    const std::uint64_t sum = filled.sum();

    Distribution empty("empty", "", 5, 8);
    ASSERT_TRUE(filled.merge(empty));
    EXPECT_EQ(filled.count(), count);
    EXPECT_EQ(filled.sum(), sum);
    EXPECT_EQ(filled.minValue(), 3u);
    EXPECT_EQ(filled.maxValue(), 99u);

    // Empty absorbing filled becomes filled.
    Distribution other("other", "", 5, 8);
    ASSERT_TRUE(other.merge(filled));
    expectSameDistribution(other, filled);

    // Empty + empty stays the identity (min untouched at its sentinel).
    Distribution a("a", "", 5, 8);
    Distribution b("b", "", 5, 8);
    ASSERT_TRUE(a.merge(b));
    EXPECT_EQ(a.count(), 0u);
}

TEST(ShardDistributionMerge, ShapeMismatchRejectedUntouched)
{
    Distribution ours("ours", "", 10, 16);
    ours.sample(42);
    Distribution width("width", "", 20, 16);
    width.sample(7);
    Distribution buckets("buckets", "", 10, 8);
    buckets.sample(7);

    EXPECT_FALSE(ours.merge(width));
    EXPECT_FALSE(ours.merge(buckets));
    EXPECT_EQ(ours.count(), 1u);
    EXPECT_EQ(ours.sum(), 42u);
}

TEST(ShardDistributionMerge, NoHistogramMergesScalars)
{
    Distribution a("a", "");
    Distribution b("b", "");
    a.sample(10);
    b.sample(2);
    b.sample(30);
    ASSERT_TRUE(a.merge(b));
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 42u);
    EXPECT_EQ(a.minValue(), 2u);
    EXPECT_EQ(a.maxValue(), 30u);
    EXPECT_FALSE(a.hasHistogram());
}

TEST(ShardCounterMerge, ValuesAdd)
{
    Counter a("a", "");
    Counter b("b", "");
    a.inc(7);
    b.inc(35);
    a.merge(b);
    EXPECT_EQ(a.value(), 42u);
    EXPECT_EQ(a.name(), "a");
}

TEST(ShardRunResultMerge, CountsAddTimeMaxesAccuracyRederived)
{
    RunResult a;
    a.orgName = "CAMEO";
    a.workload = "milc";
    a.execTime = 100;
    a.instructions = 1000;
    a.accesses = 50;
    a.l3Misses = 20;
    a.llpCases = {8, 0, 0, 2, 0};
    a.llpAccuracy = 1.0;

    RunResult b;
    b.orgName = "CAMEO";
    b.workload = "mcf";
    b.execTime = 250;
    b.instructions = 500;
    b.accesses = 30;
    b.l3Misses = 5;
    b.truncated = true;
    b.llpCases = {0, 10, 0, 0, 0};
    b.llpAccuracy = 0.0;

    a.merge(b);
    EXPECT_EQ(a.orgName, "CAMEO");
    EXPECT_EQ(a.workload, "milc+mcf");
    EXPECT_EQ(a.execTime, 250u);
    EXPECT_EQ(a.instructions, 1500u);
    EXPECT_EQ(a.accesses, 80u);
    EXPECT_EQ(a.l3Misses, 25u);
    EXPECT_TRUE(a.truncated);
    // (8 + 2 correct) / 20 predictions, re-derived from merged cases.
    EXPECT_DOUBLE_EQ(a.llpAccuracy, 0.5);
}

TEST(ShardPlanner, EveryJobExactlyOnce)
{
    std::vector<std::string> labels;
    for (int i = 0; i < 37; ++i)
        labels.push_back("wl" + std::to_string(i % 5) + "/org" +
                         std::to_string(i));
    for (const unsigned shards : {1u, 2u, 4u, 7u}) {
        const ShardPlan plan = planShards(labels, shards);
        ASSERT_EQ(plan.shards, shards);
        ASSERT_EQ(plan.shardOf.size(), labels.size());
        ASSERT_EQ(plan.jobsOf.size(), shards);
        std::vector<int> seen(labels.size(), 0);
        for (unsigned s = 0; s < shards; ++s) {
            std::size_t prev = 0;
            bool first = true;
            for (const std::size_t index : plan.jobsOf[s]) {
                ASSERT_LT(index, labels.size());
                EXPECT_EQ(plan.shardOf[index], s);
                // Within a shard, jobs stay in submission order.
                if (!first) {
                    EXPECT_GT(index, prev);
                }
                prev = index;
                first = false;
                ++seen[index];
            }
        }
        for (const int count : seen)
            EXPECT_EQ(count, 1);
    }
}

TEST(ShardPlanner, DeterministicAndPermutationInvariant)
{
    std::vector<std::string> labels = {"milc/CAMEO", "milc/Cache",
                                       "mcf/CAMEO",  "mcf/Cache",
                                       "astar/CAMEO", "astar/Cache"};
    const ShardPlan plan = planShards(labels, 4);
    const ShardPlan again = planShards(labels, 4);
    EXPECT_EQ(plan.shardOf, again.shardOf);
    EXPECT_EQ(plan.jobsOf, again.jobsOf);

    // Reversing the spec moves jobs between submission slots but never
    // between shards: each *label* keeps its owner.
    std::vector<std::string> reversed(labels.rbegin(), labels.rend());
    const ShardPlan rplan = planShards(reversed, 4);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const std::size_t j = labels.size() - 1 - i;
        EXPECT_EQ(plan.shardOf[i], rplan.shardOf[j]) << labels[i];
    }
}

TEST(ShardPlanner, DuplicateLabelsSpreadByOccurrence)
{
    // Duplicate labels get distinct keys via their occurrence index —
    // the i-th duplicate keeps its key independent of list position.
    const std::vector<std::string> labels(16, "same/label");
    const ShardPlan plan = planShards(labels, 4);
    std::size_t covered = 0;
    for (const auto &jobs : plan.jobsOf)
        covered += jobs.size();
    EXPECT_EQ(covered, labels.size());
    EXPECT_EQ(shardJobKey("same/label", 0), shardJobKey("same/label", 0));
    EXPECT_NE(shardJobKey("same/label", 0), shardJobKey("same/label", 1));
}

TEST(ShardPlanner, ZeroShardsClampsToOne)
{
    const ShardPlan plan = planShards({"a", "b"}, 0);
    EXPECT_EQ(plan.shards, 1u);
    ASSERT_EQ(plan.jobsOf.size(), 1u);
    EXPECT_EQ(plan.jobsOf[0].size(), 2u);
}

RunResult
sampleResult()
{
    RunResult r;
    r.orgName = "CAMEO";
    r.workload = "milc";
    r.category = WorkloadCategory::CapacityLimited;
    r.execTime = 123456789;
    r.kernelSteps = 42;
    r.truncated = true;
    r.instructions = 1000000;
    r.accesses = 54321;
    r.warmupAccesses = 111;
    r.l3Hits = 40000;
    r.l3Misses = 14321;
    r.stackedBytes = 1 << 20;
    r.offchipBytes = 2 << 20;
    r.storageBytes = 4096;
    r.majorFaults = 3;
    r.minorFaults = 77;
    r.servicedStacked = 9000;
    r.servicedOffchip = 5321;
    r.swaps = 250;
    r.llpCases = {10, 20, 30, 40, 50};
    r.llpAccuracy = 0.3333333333333333;
    r.pageMigrations = 8;
    return r;
}

TEST(ShardResultFrame, ResultRoundTrip)
{
    ShardResultFrame frame;
    frame.shard = 3;
    frame.jobIndex = 17;
    frame.label = "milc/CAMEO";
    frame.hostSeconds = 1.25;
    frame.result = sampleResult();

    ShardFrameKind kind = ShardFrameKind::Done;
    ShardResultFrame decoded;
    ShardDoneFrame done;
    std::string error;
    ASSERT_TRUE(decodeShardFrame(encodeShardResult(frame), &kind,
                                 &decoded, &done, &error))
        << error;
    ASSERT_EQ(kind, ShardFrameKind::Result);
    EXPECT_EQ(decoded.shard, 3u);
    EXPECT_EQ(decoded.jobIndex, 17u);
    EXPECT_EQ(decoded.label, "milc/CAMEO");
    EXPECT_EQ(decoded.hostSeconds, 1.25);
    const RunResult &a = frame.result;
    const RunResult &b = decoded.result;
    EXPECT_EQ(a.orgName, b.orgName);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.kernelSteps, b.kernelSteps);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.warmupAccesses, b.warmupAccesses);
    EXPECT_EQ(a.l3Hits, b.l3Hits);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.stackedBytes, b.stackedBytes);
    EXPECT_EQ(a.offchipBytes, b.offchipBytes);
    EXPECT_EQ(a.storageBytes, b.storageBytes);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.minorFaults, b.minorFaults);
    EXPECT_EQ(a.servicedStacked, b.servicedStacked);
    EXPECT_EQ(a.servicedOffchip, b.servicedOffchip);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.llpCases, b.llpCases);
    EXPECT_EQ(a.llpAccuracy, b.llpAccuracy);
    EXPECT_EQ(a.pageMigrations, b.pageMigrations);
}

TEST(ShardResultFrame, DoneRoundTrip)
{
    ShardDoneFrame frame;
    frame.shard = 2;
    frame.jobsRun = 9;

    ShardFrameKind kind = ShardFrameKind::Result;
    ShardResultFrame result;
    ShardDoneFrame decoded;
    std::string error;
    ASSERT_TRUE(decodeShardFrame(encodeShardDone(frame), &kind, &result,
                                 &decoded, &error))
        << error;
    ASSERT_EQ(kind, ShardFrameKind::Done);
    EXPECT_EQ(decoded.shard, 2u);
    EXPECT_EQ(decoded.jobsRun, 9u);
}

TEST(ShardResultFrame, CorruptionRejected)
{
    ShardResultFrame frame;
    frame.result = sampleResult();
    const std::vector<std::uint8_t> good = encodeShardResult(frame);

    ShardFrameKind kind;
    ShardResultFrame result;
    ShardDoneFrame done;
    // Flipping any single byte must be caught (section CRCs).
    for (const std::size_t at :
         {std::size_t{8}, good.size() / 2, good.size() - 1}) {
        std::vector<std::uint8_t> bad = good;
        bad[at] ^= 0x40;
        std::string error;
        EXPECT_FALSE(
            decodeShardFrame(std::move(bad), &kind, &result, &done,
                             &error));
        EXPECT_FALSE(error.empty());
    }
    // Truncation too.
    std::vector<std::uint8_t> shorter = good;
    shorter.resize(shorter.size() / 2);
    std::string error;
    EXPECT_FALSE(decodeShardFrame(std::move(shorter), &kind, &result,
                                  &done, &error));
}

TEST(ShardFrameSplitter, ReassemblesAcrossArbitraryChunking)
{
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::uint8_t n = 1; n <= 5; ++n)
        payloads.push_back(std::vector<std::uint8_t>(n * 7, n));
    std::vector<std::uint8_t> stream;
    for (const auto &payload : payloads)
        appendFrame(stream, payload);

    // Feed one byte at a time — the worst chunking a pipe can produce.
    FrameSplitter splitter;
    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint8_t> payload;
    for (const std::uint8_t byte : stream) {
        splitter.feed(&byte, 1);
        while (splitter.next(&payload))
            got.push_back(payload);
    }
    EXPECT_FALSE(splitter.bad());
    EXPECT_EQ(splitter.pendingBytes(), 0u);
    ASSERT_EQ(got.size(), payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i)
        EXPECT_EQ(got[i], payloads[i]);
}

TEST(ShardFrameSplitter, PartialFramePends)
{
    std::vector<std::uint8_t> stream;
    appendFrame(stream, std::vector<std::uint8_t>(100, 0xab));

    FrameSplitter splitter;
    splitter.feed(stream.data(), stream.size() - 1);
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(splitter.next(&payload));
    EXPECT_GT(splitter.pendingBytes(), 0u);
    splitter.feed(stream.data() + stream.size() - 1, 1);
    ASSERT_TRUE(splitter.next(&payload));
    EXPECT_EQ(payload.size(), 100u);
    EXPECT_EQ(splitter.pendingBytes(), 0u);
}

TEST(ShardFrameSplitter, OversizedLengthLatchesBad)
{
    // A length beyond kMaxFrameBytes means the stream is not
    // frame-aligned; the splitter must refuse everything after it.
    const std::uint8_t garbage[4] = {0xff, 0xff, 0xff, 0xff};
    FrameSplitter splitter;
    splitter.feed(garbage, sizeof(garbage));
    std::vector<std::uint8_t> payload;
    EXPECT_FALSE(splitter.next(&payload));
    EXPECT_TRUE(splitter.bad());

    // Even a following well-formed frame is not produced.
    std::vector<std::uint8_t> stream;
    appendFrame(stream, std::vector<std::uint8_t>(3, 1));
    splitter.feed(stream.data(), stream.size());
    EXPECT_FALSE(splitter.next(&payload));
    EXPECT_TRUE(splitter.bad());
}

} // namespace
