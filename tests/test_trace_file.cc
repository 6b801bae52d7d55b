/**
 * @file
 * Unit tests for the binary trace format (record/replay) and the
 * System source-factory hook that plugs trace replay into simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "system/system.hh"
#include "trace/generator.hh"
#include "trace/packed_trace.hh"
#include "trace/trace_file.hh"
#include "trace_common.hh"

namespace cameo
{
namespace
{

/** Temporary file that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_((std::filesystem::temp_directory_path() / name).string())
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

GeneratorParams
smallParams()
{
    GeneratorParams gp;
    gp.footprintBytes = 256 << 12;
    gp.hotSetBytes = 8 << 10;
    gp.gapMeanInstructions = 20.0;
    return gp;
}

TEST(TraceFileTest, RoundTripPreservesRecords)
{
    TempFile file("cameo_test_roundtrip.trc");
    const WorkloadProfile &wl = *findWorkload("gcc");
    SyntheticGenerator gen(wl, smallParams(), 42);

    // Record, then replay against a fresh identical generator.
    std::vector<Access> expected;
    {
        TraceWriter writer(file.path());
        ASSERT_TRUE(writer.good());
        SyntheticGenerator src(wl, smallParams(), 42);
        for (int i = 0; i < 5000; ++i) {
            const Access a = nextAccess(src);
            expected.push_back(a);
            writer.append(a);
        }
        writer.close();
        ASSERT_TRUE(writer.good());
        EXPECT_EQ(writer.recordsWritten(), 5000u);
    }

    TraceReader reader(file.path());
    ASSERT_EQ(reader.size(), 5000u);
    for (const Access &want : expected) {
        const Access got = nextAccess(reader);
        ASSERT_EQ(got.pc, want.pc);
        ASSERT_EQ(got.vaddr, want.vaddr);
        ASSERT_EQ(got.gapInstructions, want.gapInstructions);
        ASSERT_EQ(got.isWrite, want.isWrite);
        ASSERT_EQ(got.dependsOnPrev, want.dependsOnPrev);
    }
}

TEST(TraceFileTest, ReaderWrapsAround)
{
    TempFile file("cameo_test_wrap.trc");
    {
        TraceWriter writer(file.path());
        Access a;
        a.pc = 0x1000;
        a.vaddr = 0x2000;
        writer.append(a);
        a.vaddr = 0x3000;
        writer.append(a);
    }
    TraceReader reader(file.path());
    EXPECT_EQ(nextAccess(reader).vaddr, 0x2000u);
    EXPECT_EQ(nextAccess(reader).vaddr, 0x3000u);
    EXPECT_EQ(nextAccess(reader).vaddr, 0x2000u); // wrapped
    reader.rewind();
    EXPECT_EQ(nextAccess(reader).vaddr, 0x2000u);
}

TEST(TraceFileTest, RecordTraceHelper)
{
    TempFile file("cameo_test_helper.trc");
    const WorkloadProfile &wl = *findWorkload("milc");
    SyntheticGenerator gen(wl, smallParams(), 7);
    EXPECT_EQ(recordTrace(gen, file.path(), 1234), 1234u);
    TraceReader reader(file.path());
    EXPECT_EQ(reader.size(), 1234u);
}

/** The message a TraceReader construction fails with. */
std::string
openError(const std::string &path)
{
    try {
        TraceReader reader(path);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(TraceFileTest, RejectsGarbage)
{
    TempFile file("cameo_test_garbage.trc");
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "this is not a trace file at all, not even close";
    }
    // The message names the file, the offset, and both the expected
    // and the found magic.
    const std::string msg = openError(file.path());
    EXPECT_NE(msg.find(file.path()), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("CAMEOTRC"), std::string::npos) << msg;
    EXPECT_NE(msg.find("this is "), std::string::npos) << msg;
}

TEST(TraceFileTest, RejectsMissingFile)
{
    EXPECT_THROW(TraceReader reader("/nonexistent/path/x.trc"),
                 std::runtime_error);
}

TEST(TraceFileTest, RejectsTruncation)
{
    TempFile file("cameo_test_trunc.trc");
    {
        TraceWriter writer(file.path());
        Access a;
        for (int i = 0; i < 100; ++i)
            writer.append(a);
    }
    // Chop the last record in half. The error pinpoints the record.
    std::filesystem::resize_file(
        file.path(), std::filesystem::file_size(file.path()) - 10);
    const std::string msg = openError(file.path());
    EXPECT_NE(msg.find(file.path()), std::string::npos) << msg;
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("record 99 of 100"), std::string::npos) << msg;
}

TEST(TraceFileTest, RejectsTrailingBytes)
{
    TempFile file("cameo_test_trailing.trc");
    {
        TraceWriter writer(file.path());
        Access a;
        for (int i = 0; i < 10; ++i)
            writer.append(a);
    }
    std::ofstream out(file.path(),
                      std::ios::binary | std::ios::app);
    out << "junk";
    out.close();
    const std::string msg = openError(file.path());
    EXPECT_NE(msg.find("trailing bytes"), std::string::npos) << msg;
}

TEST(TraceFileTest, RejectsUnsupportedVersion)
{
    TempFile file("cameo_test_version.trc");
    {
        TraceWriter writer(file.path());
        Access a;
        writer.append(a);
    }
    // Stamp a bogus version over the header.
    std::fstream patch(file.path(), std::ios::binary | std::ios::in |
                                        std::ios::out);
    patch.seekp(8);
    const std::uint32_t bogus = 99;
    patch.write(reinterpret_cast<const char *>(&bogus), sizeof(bogus));
    patch.close();
    const std::string msg = openError(file.path());
    EXPECT_NE(msg.find("version 99"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 8"), std::string::npos) << msg;
}

TEST(TraceFileTest, ReaderSkipMatchesConsume)
{
    TempFile file("cameo_test_skip.trc");
    const WorkloadProfile &wl = *findWorkload("gcc");
    for (const TraceFormat format :
         {TraceFormat::Raw, TraceFormat::Packed}) {
        SyntheticGenerator gen(wl, smallParams(), 13);
        ASSERT_EQ(recordTrace(gen, file.path(), 2000, format), 2000u);
        for (const std::uint64_t n : {1ull, 999ull, 2000ull, 4321ull}) {
            TraceReader skipped(file.path());
            skipped.skip(n);
            TraceReader consumed(file.path());
            for (std::uint64_t i = 0; i < n; ++i)
                (void)nextAccess(consumed);
            for (int i = 0; i < 40; ++i) {
                const Access a = nextAccess(skipped);
                const Access b = nextAccess(consumed);
                ASSERT_EQ(a.vaddr, b.vaddr);
                ASSERT_EQ(a.pc, b.pc);
            }
        }
    }
}

TEST(TraceFileTest, SkipZeroIsIdentity)
{
    // skip(0) must not advance — the warmup=0 restore path relies on
    // it being a true no-op for every source implementation.
    TempFile file("cameo_test_skip_zero.trc");
    const WorkloadProfile &wl = *findWorkload("gcc");
    for (const TraceFormat format :
         {TraceFormat::Raw, TraceFormat::Packed}) {
        SyntheticGenerator gen(wl, smallParams(), 17);
        ASSERT_EQ(recordTrace(gen, file.path(), 1500, format), 1500u);
        TraceReader skipped(file.path());
        skipped.skip(0);
        TraceReader plain(file.path());
        for (int i = 0; i < 30; ++i) {
            const Access a = nextAccess(skipped);
            const Access b = nextAccess(plain);
            ASSERT_EQ(a.vaddr, b.vaddr);
            ASSERT_EQ(a.pc, b.pc);
        }
    }
}

TEST(TraceFileTest, ConsecutiveSkipsCompose)
{
    // skip(w) then skip(p) must equal skip(w + p): exactly the restore
    // path, which fast-forwards warmup at construction and then the
    // processed-record count from the snapshot. The split points are
    // chosen so the second skip starts mid-interval and crosses a
    // packed-trace checkpoint (kTraceCheckpointInterval = 1024).
    static_assert(kTraceCheckpointInterval == 1024);
    TempFile file("cameo_test_skip_compose.trc");
    const WorkloadProfile &wl = *findWorkload("mcf");
    for (const TraceFormat format :
         {TraceFormat::Raw, TraceFormat::Packed}) {
        SyntheticGenerator gen(wl, smallParams(), 19);
        ASSERT_EQ(recordTrace(gen, file.path(), 3000, format), 3000u);
        for (const auto &[first, second] :
             {std::pair<std::uint64_t, std::uint64_t>{0, 1024},
              {700, 900},     // second crosses the 1024 checkpoint
              {1024, 1024},   // both land exactly on checkpoints
              {1023, 1},      // second stops exactly on a checkpoint
              {2000, 1000},   // second lands exactly on the end
              {2500, 1000}}) { // second wraps past the end
            TraceReader split(file.path());
            split.skip(first);
            split.skip(second);
            TraceReader whole(file.path());
            whole.skip(first + second);
            for (int i = 0; i < 30; ++i) {
                const Access a = nextAccess(split);
                const Access b = nextAccess(whole);
                ASSERT_EQ(a.vaddr, b.vaddr)
                    << first << " + " << second << " record " << i;
                ASSERT_EQ(a.pc, b.pc)
                    << first << " + " << second << " record " << i;
            }
        }
    }
}

TEST(PackedTraceTest, RoundTripPreservesAdversarialRecords)
{
    // Extreme deltas, max gaps, alternating flags: the codec must be
    // exact for any record sequence, not just generator-shaped ones.
    std::vector<Access> records;
    Access a;
    a.pc = 0;
    a.vaddr = ~std::uint64_t{0};
    a.gapInstructions = ~std::uint32_t{0};
    a.isWrite = true;
    records.push_back(a);
    a.pc = ~std::uint64_t{0};
    a.vaddr = 0;
    a.gapInstructions = 0;
    a.isWrite = false;
    a.dependsOnPrev = true;
    records.push_back(a);
    for (int i = 0; i < 3000; ++i) { // > 2 checkpoint intervals
        a.pc = (i % 3 == 0) ? a.pc : a.pc * 0x9e3779b97f4a7c15ULL + i;
        a.vaddr = a.vaddr * 6364136223846793005ULL + 1442695040888963407ULL;
        a.gapInstructions = static_cast<std::uint32_t>(a.vaddr % 7919);
        a.isWrite = (i & 1) != 0;
        a.dependsOnPrev = (i & 2) != 0;
        records.push_back(a);
    }

    const PackedTrace packed = packAccesses(records.data(),
                                            records.size());
    EXPECT_EQ(packed.count, records.size());
    std::string error;
    EXPECT_TRUE(validatePackedTrace(packed.view(), &error)) << error;

    PackedTraceCursor cursor(packed.view());
    std::vector<Access> out(records.size());
    cursor.refill(out.data(), out.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(out[i].pc, records[i].pc) << i;
        ASSERT_EQ(out[i].vaddr, records[i].vaddr) << i;
        ASSERT_EQ(out[i].gapInstructions, records[i].gapInstructions);
        ASSERT_EQ(out[i].isWrite, records[i].isWrite);
        ASSERT_EQ(out[i].dependsOnPrev, records[i].dependsOnPrev);
    }
}

TEST(PackedTraceTest, FileRoundTripMmap)
{
    TempFile file("cameo_test_packed.trc");
    const WorkloadProfile &wl = *findWorkload("mcf");

    std::vector<Access> expected;
    {
        TraceWriter writer(file.path(), TraceFormat::Packed,
                           "unit-test-meta");
        ASSERT_TRUE(writer.good());
        SyntheticGenerator src(wl, smallParams(), 42);
        for (int i = 0; i < 5000; ++i) {
            const Access a = nextAccess(src);
            expected.push_back(a);
            writer.append(a);
        }
        writer.close();
        ASSERT_TRUE(writer.good());
    }
    // Packed wins substantially over the raw 24 bytes/record.
    const auto file_bytes = std::filesystem::file_size(file.path());
    EXPECT_LT(file_bytes, 5000u * 12u);

    TraceReader reader(file.path());
    ASSERT_EQ(reader.size(), 5000u);
    EXPECT_EQ(reader.format(), TraceFormat::Packed);
    EXPECT_EQ(reader.meta(), "unit-test-meta");
    for (const Access &want : expected) {
        const Access got = nextAccess(reader);
        ASSERT_EQ(got.pc, want.pc);
        ASSERT_EQ(got.vaddr, want.vaddr);
        ASSERT_EQ(got.gapInstructions, want.gapInstructions);
        ASSERT_EQ(got.isWrite, want.isWrite);
        ASSERT_EQ(got.dependsOnPrev, want.dependsOnPrev);
    }
    // Wraps back to the first record.
    EXPECT_EQ(nextAccess(reader).vaddr, expected[0].vaddr);
}

TEST(PackedTraceTest, RejectsCorruptPackedPayload)
{
    TempFile file("cameo_test_packed_corrupt.trc");
    const WorkloadProfile &wl = *findWorkload("milc");
    SyntheticGenerator gen(wl, smallParams(), 3);
    ASSERT_EQ(recordTrace(gen, file.path(), 2000, TraceFormat::Packed),
              2000u);

    // Flip the first payload byte (a flags byte) to set reserved bits.
    {
        std::fstream patch(file.path(), std::ios::binary |
                                            std::ios::in |
                                            std::ios::out);
        // Header is 44 bytes, meta empty; checkpoints precede payload.
        patch.seekg(28);
        std::uint32_t checkpoints = 0;
        patch.read(reinterpret_cast<char *>(&checkpoints),
                   sizeof(checkpoints));
        patch.seekp(44 + checkpoints * 24);
        const char bad = '\xff';
        patch.write(&bad, 1);
    }
    const std::string msg = openError(file.path());
    EXPECT_NE(msg.find(file.path()), std::string::npos) << msg;
    EXPECT_NE(msg.find("record 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reserved flag bits"), std::string::npos) << msg;

    // Truncation is caught by the header's body accounting.
    std::filesystem::resize_file(
        file.path(), std::filesystem::file_size(file.path()) - 5);
    const std::string trunc = openError(file.path());
    EXPECT_NE(trunc.find("body size mismatch"), std::string::npos)
        << trunc;
}

TEST(PackedTraceTest, HelperRoundTripPreservesMeta)
{
    TempFile file("cameo_test_packed_helper.trc");
    const WorkloadProfile &wl = *findWorkload("lbm");
    SyntheticGenerator gen(wl, smallParams(), 17);
    std::vector<Access> records(1500);
    gen.refill(records.data(), records.size());
    const PackedTrace packed = packAccesses(records.data(),
                                            records.size());

    std::string error;
    ASSERT_TRUE(writePackedTraceFile(file.path(), packed.view(),
                                     "the-cache-key", &error))
        << error;
    PackedTraceFile loaded;
    ASSERT_TRUE(loadPackedTraceFile(file.path(), &loaded, &error))
        << error;
    EXPECT_EQ(loaded.meta, "the-cache-key");
    EXPECT_EQ(loaded.view.count, records.size());

    PackedTraceCursor cursor(loaded.view);
    std::vector<Access> out(records.size());
    cursor.refill(out.data(), out.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(out[i].vaddr, records[i].vaddr) << i;
        ASSERT_EQ(out[i].pc, records[i].pc) << i;
    }
}

TEST(TraceReplayTest, ReplayedSystemMatchesSyntheticRun)
{
    // Record each core's synthetic stream, then run the same system
    // from the trace files: results must be identical (the replay path
    // is bit-exact).
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 6000;
    const WorkloadProfile &wl = *findWorkload("soplex");
    const RunResult direct = runWorkload(config, OrgKind::Cameo, wl);

    // Record per-core traces using the same seeding the System uses.
    std::vector<std::string> paths;
    SystemConfig recording = config;
    recording.sourceFactory =
        [&paths](std::uint32_t core, const WorkloadProfile &profile,
                 const GeneratorParams &params, std::uint64_t seed)
        -> std::unique_ptr<AccessSource> {
        auto gen = std::make_unique<SyntheticGenerator>(profile, params,
                                                        seed);
        const std::string path =
            (std::filesystem::temp_directory_path() /
             ("cameo_replay_" + std::to_string(core) + ".trc"))
                .string();
        recordTrace(*gen, path, 6000);
        paths.push_back(path);
        return std::make_unique<TraceReader>(path);
    };
    const RunResult replayed =
        runWorkload(recording, OrgKind::Cameo, wl);

    EXPECT_EQ(replayed.execTime, direct.execTime);
    EXPECT_EQ(replayed.stackedBytes, direct.stackedBytes);
    EXPECT_EQ(replayed.offchipBytes, direct.offchipBytes);
    EXPECT_EQ(replayed.llpCases, direct.llpCases);

    for (const auto &p : paths)
        std::remove(p.c_str());
}

} // namespace
} // namespace cameo
