/**
 * @file
 * Unit tests for the DRAM timing model: Table I parameter derivations,
 * address decomposition, row-buffer outcomes, bus serialization, and
 * byte accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/dram_module.hh"
#include "dram/queue_config.hh"
#include "dram/timings.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

TEST(TimingsTest, TableOneStackedParameters)
{
    const DramTimings t = stackedTimings();
    EXPECT_EQ(t.busMhz, 1600u);
    EXPECT_EQ(t.channels, 16u);
    EXPECT_EQ(t.banksPerChannel, 16u);
    EXPECT_EQ(t.busWidthBits, 128u);
    EXPECT_EQ(t.tCas, 9u);
    EXPECT_EQ(t.tRas, 36u);
    EXPECT_EQ(t.cpuCyclesPerBusCycle(), 2u);
    EXPECT_EQ(t.cpuCyclesPerBeat(), 1u);
    EXPECT_EQ(t.bytesPerBeat(), 16u);
}

TEST(TimingsTest, TableOneOffchipParameters)
{
    const DramTimings t = offchipTimings();
    EXPECT_EQ(t.busMhz, 800u);
    EXPECT_EQ(t.channels, 8u);
    EXPECT_EQ(t.busWidthBits, 64u);
    EXPECT_EQ(t.cpuCyclesPerBusCycle(), 4u);
    EXPECT_EQ(t.cpuCyclesPerBeat(), 2u);
    EXPECT_EQ(t.bytesPerBeat(), 8u);
}

TEST(TimingsTest, BurstArithmetic)
{
    const DramTimings s = stackedTimings();
    // 64B on a 16B bus: 4 beats, 1 cycle each.
    EXPECT_EQ(s.beatsFor(64), 4u);
    EXPECT_EQ(s.burstCycles(64), 4u);
    // The 80-byte LEAD burst: 5 beats (the paper's burst length 5).
    EXPECT_EQ(s.beatsFor(80), 5u);
    EXPECT_EQ(s.burstCycles(80), 5u);

    const DramTimings o = offchipTimings();
    EXPECT_EQ(o.beatsFor(64), 8u);
    EXPECT_EQ(o.burstCycles(64), 16u);
}

TEST(TimingsTest, IdleLatencyRatioMatchesPaperUnits)
{
    // The paper's Figure 8 normalizes: stacked = 1 unit, off-chip = 2.
    const double s =
        static_cast<double>(stackedTimings().idleLatency(64));
    const double o =
        static_cast<double>(offchipTimings().idleLatency(64));
    EXPECT_NEAR(o / s, 2.0, 0.35);
}

TEST(TimingsTest, PeakBandwidthRatioRoughlyEightX)
{
    // Section II: stacked DRAM provides ~8x the bandwidth.
    const double s = stackedTimings().peakBytesPerCycle();
    const double o = offchipTimings().peakBytesPerCycle();
    EXPECT_NEAR(s / o, 8.0, 0.01);
}

TEST(AddressMapTest, DecodeInBounds)
{
    const DramTimings t = offchipTimings();
    const DramAddressMap map(t);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const DramCoord c = map.decode(rng.next(1ull << 30));
        EXPECT_LT(c.channel, t.channels);
        EXPECT_LT(c.bank, t.banksPerChannel);
    }
}

TEST(AddressMapTest, Deterministic)
{
    const DramAddressMap map(stackedTimings());
    EXPECT_EQ(map.decode(12345), map.decode(12345));
}

TEST(AddressMapTest, StridedAccessesSpreadAcrossChannels)
{
    // A stride-6 line pattern (milc-like) must not collapse onto a
    // subset of channels — this is what the XOR-fold interleaving is
    // for.
    DramTimings t = offchipTimings();
    t.channels = 2;
    const DramAddressMap map(t);
    std::set<std::uint32_t> channels;
    for (std::uint64_t line = 0; line < 6000; line += 6)
        channels.insert(map.decode(line).channel);
    EXPECT_EQ(channels.size(), 2u);
}

TEST(AddressMapTest, SequentialLinesUseManyBanks)
{
    const DramAddressMap map(offchipTimings());
    std::set<std::pair<std::uint32_t, std::uint32_t>> chan_banks;
    for (std::uint64_t line = 0; line < 1u << 16; ++line)
        chan_banks.insert({map.decode(line).channel,
                           map.decode(line).bank});
    EXPECT_GE(chan_banks.size(),
              std::size_t{offchipTimings().channels} *
                  offchipTimings().banksPerChannel / 2);
}

class DramModuleTest : public ::testing::Test
{
  protected:
    DramModuleTest() : mod_("t.dram", offchipTimings(), 1ull << 26) {}
    DramModule mod_;
};

TEST_F(DramModuleTest, IdleReadLatencyMatchesClosedRowFormula)
{
    const Tick done = mod_.request(0, 0, false, 64);
    // Closed row: tRCD + tCAS + burst = (9+9)*4 + 16 = 88 cycles.
    EXPECT_EQ(done, offchipTimings().idleLatency(64));
    EXPECT_EQ(mod_.rowClosed().value(), 1u);
}

TEST_F(DramModuleTest, RowHitIsFasterThanConflict)
{
    // Find a second line with the same (channel, bank, row) as line 0
    // for a guaranteed row hit, and one with the same (channel, bank)
    // but a different row for a guaranteed conflict.
    const DramAddressMap &map = mod_.addressMap();
    const DramCoord c0 = map.decode(0);
    std::uint64_t same_row = 0, other_row = 0;
    for (std::uint64_t line = 1; line < 1u << 20; ++line) {
        const DramCoord c = map.decode(line);
        if (c.channel != c0.channel || c.bank != c0.bank)
            continue;
        if (c.row == c0.row && same_row == 0)
            same_row = line;
        if (c.row != c0.row && other_row == 0)
            other_row = line;
        if (same_row && other_row)
            break;
    }
    ASSERT_NE(same_row, 0u);
    ASSERT_NE(other_row, 0u);

    const Tick t1 = mod_.request(0, 0, false, 64);
    const Tick t2 = mod_.request(t1, same_row, false, 64);
    EXPECT_EQ(mod_.rowHits().value(), 1u);
    const Tick hit_latency = t2 - t1;

    // Far later (tRAS satisfied), a different row conflicts and is
    // slower than the hit.
    const Tick t3 = t2 + 10000;
    const Tick t4 = mod_.request(t3, other_row, false, 64);
    EXPECT_EQ(mod_.rowConflicts().value(), 1u);
    EXPECT_GT(t4 - t3, hit_latency);
}

TEST_F(DramModuleTest, ChannelBusSerializesSimultaneousAccesses)
{
    // Two simultaneous accesses decoding to the same channel must not
    // finish at the same time.
    const DramAddressMap &map = mod_.addressMap();
    // Find two lines on the same channel, different banks.
    const DramCoord c0 = map.decode(0);
    std::uint64_t other = 0;
    for (std::uint64_t line = 1; line < 100000; ++line) {
        const DramCoord c = map.decode(line);
        if (c.channel == c0.channel && c.bank != c0.bank) {
            other = line;
            break;
        }
    }
    ASSERT_NE(other, 0u);
    const Tick t1 = mod_.request(0, 0, false, 64);
    const Tick t2 = mod_.request(0, other, false, 64);
    EXPECT_NE(t1, t2);
}

TEST_F(DramModuleTest, ByteAccountingExact)
{
    mod_.request(0, 1, false, 64);
    mod_.request(0, 2, false, 80);
    mod_.request(0, 3, true, 64);
    EXPECT_EQ(mod_.readBytes().value(), 144u);
    EXPECT_EQ(mod_.writeBytes().value(), 64u);
    EXPECT_EQ(mod_.bytesTransferred(), 208u);
    EXPECT_EQ(mod_.reads().value(), 2u);
    EXPECT_EQ(mod_.writes().value(), 1u);
}

TEST_F(DramModuleTest, WritesDoNotDisturbRowState)
{
    // Read opens a row; an interleaved write (drained from the write
    // queue) must not close it.
    const DramAddressMap &map = mod_.addressMap();
    const DramCoord c0 = map.decode(0);
    std::uint64_t same_row = 0;
    for (std::uint64_t line = 1; line < 1u << 20; ++line) {
        const DramCoord c = map.decode(line);
        if (c.channel == c0.channel && c.bank == c0.bank &&
            c.row == c0.row) {
            same_row = line;
            break;
        }
    }
    ASSERT_NE(same_row, 0u);
    const Tick t1 = mod_.request(0, 0, false, 64);
    mod_.request(t1, 999 * 512, true, 64);
    mod_.request(t1, same_row, false, 64);
    EXPECT_EQ(mod_.rowHits().value(), 1u);
}

TEST_F(DramModuleTest, ResetClearsStateAndStats)
{
    mod_.request(0, 0, false, 64);
    mod_.reset();
    EXPECT_EQ(mod_.reads().value(), 0u);
    EXPECT_EQ(mod_.bytesTransferred(), 0u);
    // After reset the same access sees a closed row again.
    mod_.request(0, 0, false, 64);
    EXPECT_EQ(mod_.rowClosed().value(), 1u);
}

TEST_F(DramModuleTest, MonotonicReservationUnderLoad)
{
    // Hammer one line: completions must be strictly increasing.
    Tick prev = 0;
    for (int i = 0; i < 100; ++i) {
        const Tick done = mod_.request(0, 0, false, 64);
        EXPECT_GT(done, prev);
        prev = done;
    }
}

TEST_F(DramModuleTest, LatencyDistributionSampled)
{
    mod_.request(100, 0, false, 64);
    EXPECT_EQ(mod_.readLatency().count(), 1u);
    EXPECT_EQ(mod_.readLatency().minValue(),
              offchipTimings().idleLatency(64));
}

TEST(DramModuleParamTest, LeadRowGeometryReducesLinesPerRow)
{
    DramTimings t = stackedTimings();
    t.linesPerRow = 31; // LEAD layout
    const DramAddressMap map(t);
    // 31 channel-local lines share a physical row; the 32nd starts the
    // next one. Compare (bank, row) pairs of channel-local neighbours.
    const std::uint64_t chan_stride = t.channels;
    const auto bank_row = [&](std::uint64_t i) {
        const DramCoord c = map.decode(i * chan_stride);
        return std::pair<std::uint32_t, std::uint64_t>{c.bank, c.row};
    };
    EXPECT_EQ(bank_row(0), bank_row(30));
    EXPECT_NE(bank_row(0), bank_row(31));
}

} // namespace
} // namespace cameo

namespace cameo
{
namespace
{

TEST(DramModuleExtraTest, EarliestServiceStartTracksReservations)
{
    DramModule mod("t.ess", offchipTimings(), 1ull << 26);
    EXPECT_EQ(mod.earliestServiceStart(0), 0u);
    const Tick done = mod.request(0, 0, false, 64);
    // The same line's resources are now reserved into the future.
    EXPECT_GT(mod.earliestServiceStart(0), 0u);
    EXPECT_LE(mod.earliestServiceStart(0), done);
    // Peeking must not mutate state.
    const Tick peek1 = mod.earliestServiceStart(0);
    const Tick peek2 = mod.earliestServiceStart(0);
    EXPECT_EQ(peek1, peek2);
}

TEST(DramModuleExtraTest, WriteDrainHalvesBusOccupancy)
{
    // Back-to-back writes advance the shared bus by half a burst each
    // (row-batched draining), so 2N writes occupy what N reads would.
    DramModule mod("t.wd", offchipTimings(), 1ull << 26);
    const Tick burst = offchipTimings().burstCycles(64);
    Tick done = 0;
    for (int i = 0; i < 10; ++i)
        done = mod.request(0, 0, true, 64);
    // Ten writes: bus advanced 10 * burst/2; the last completes one
    // full burst after its start.
    EXPECT_EQ(done, 9 * (burst / 2) + burst);
}

/**
 * A Queued snapshot image of an idle @p t-geometry module whose every
 * channel holds @p reads in-service read completions and @p writes
 * buffered writes.
 */
std::vector<std::uint8_t>
queuedImage(const DramTimings &t, const std::vector<Tick> &reads,
            std::uint64_t writes)
{
    SnapshotWriter w;
    w.beginSection("dram");
    w.u32(t.channels);
    w.u32(t.banksPerChannel);
    w.u8(1); // Queued
    for (std::uint32_t c = 0; c < t.channels; ++c) {
        w.u64(0); // bus ready
        for (std::uint32_t b = 0; b < t.banksPerChannel; ++b) {
            w.u64(Bank::kNoRow);
            w.u64(0);
            w.u64(0);
        }
    }
    for (std::uint32_t c = 0; c < t.channels; ++c) {
        w.u64(reads.size());
        for (const Tick done : reads)
            w.u64(done);
        w.u64(writes);
        for (std::uint64_t i = 0; i < writes; ++i) {
            w.u64(i);
            w.u32(64);
        }
    }
    w.u64(0); // bandwidth window start
    w.u64(0); // bandwidth window bytes
    w.endSection();
    return w.finish();
}

/** Restore @p image into a default Queued module; its error or "". */
std::string
restoreQueuedImage(std::vector<std::uint8_t> image)
{
    DramModule mod("t.restore", offchipTimings(), 1ull << 26);
    mod.setTimingMode(TimingMode::Queued, DramQueueConfig{});
    SnapshotReader r;
    if (r.open(std::move(image)) && r.enterSection("dram")) {
        mod.restore(r);
        r.leaveSection();
    }
    return r.error();
}

TEST(DramModuleSnapshotTest, RestoreRejectsUnreachableQueueState)
{
    // The default controller (read window 16, drain watermarks 24/8)
    // never holds more than 16 in-service reads or 24 buffered writes
    // in a channel, and bus-serialized reads complete in order.
    const DramTimings t = offchipTimings();
    const DramQueueConfig q;
    std::vector<Tick> full_window;
    for (std::uint32_t i = 0; i < q.readWindow; ++i)
        full_window.push_back(100 + 10 * i);
    EXPECT_EQ(restoreQueuedImage(queuedImage(t, full_window,
                                             q.drainHighWatermark)),
              "");

    // A module run with a wider controller (window 64, watermarks
    // 60/48) holds queues the default controller cannot reach.
    DramQueueConfig wide;
    wide.readWindow = 64;
    wide.writeQueueDepth = 64;
    wide.drainHighWatermark = 60;
    wide.drainLowWatermark = 48;
    DramModule src("t.wide", t, 1ull << 26);
    src.setTimingMode(TimingMode::Queued, wide);
    for (std::uint64_t line = 0; line < 4096; ++line)
        src.request(0, line, /*is_write=*/false, 64);
    SnapshotWriter w;
    w.beginSection("dram");
    src.save(w);
    w.endSection();
    const std::string wider = restoreQueuedImage(w.finish());
    EXPECT_EQ(wider.rfind("dram: ", 0), 0u) << wider;

    std::vector<Tick> over_window = full_window;
    over_window.push_back(full_window.back() + 10);
    const std::string reads =
        restoreQueuedImage(queuedImage(t, over_window, 0));
    EXPECT_EQ(reads.rfind("dram: ", 0), 0u) << reads;
    EXPECT_NE(reads.find("read window"), std::string::npos) << reads;

    const std::string order =
        restoreQueuedImage(queuedImage(t, {200, 150}, 0));
    EXPECT_EQ(order.rfind("dram: ", 0), 0u) << order;
    EXPECT_NE(order.find("decrease"), std::string::npos) << order;

    const std::string writes = restoreQueuedImage(
        queuedImage(t, {}, std::uint64_t{q.drainHighWatermark} + 1));
    EXPECT_EQ(writes.rfind("dram: ", 0), 0u) << writes;
    EXPECT_NE(writes.find("high watermark"), std::string::npos) << writes;
}

TEST(DramModuleExtraTest, BurstBytesScaleBusTime)
{
    // An 80B LEAD burst must occupy the stacked bus longer than a 64B
    // line burst by exactly one beat.
    const DramTimings t = stackedTimings();
    EXPECT_EQ(t.burstCycles(80) - t.burstCycles(64),
              t.cpuCyclesPerBeat());
}

} // namespace
} // namespace cameo
