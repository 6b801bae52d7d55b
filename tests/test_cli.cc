/**
 * @file
 * Unit tests for the command-line parser, the JSON stats dump, and the
 * DRAM refresh model (the pieces behind the cameo-sim tool).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "dram/dram_module.hh"
#include "stats/registry.hh"
#include "util/cli.hh"
#include "util/env.hh"

namespace cameo
{
namespace
{

CliParser
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return CliParser(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParserTest, KeyEqualsValue)
{
    const auto cli = parse({"--org=cameo", "--accesses=1000"});
    EXPECT_EQ(cli.getString("org"), "cameo");
    EXPECT_EQ(cli.getUint("accesses"), 1000u);
}

TEST(CliParserTest, KeySpaceValue)
{
    const auto cli = parse({"--org", "cache", "--seed", "7"});
    EXPECT_EQ(cli.getString("org"), "cache");
    EXPECT_EQ(cli.getUint("seed"), 7u);
}

TEST(CliParserTest, BareBooleanFlags)
{
    const auto cli = parse({"--json", "--verbose=false", "--on=1"});
    EXPECT_TRUE(cli.getBool("json"));
    EXPECT_FALSE(cli.getBool("verbose"));
    EXPECT_TRUE(cli.getBool("on"));
    EXPECT_FALSE(cli.getBool("absent"));
    EXPECT_TRUE(cli.getBool("absent", true));
}

TEST(CliParserTest, Positional)
{
    const auto cli = parse({"record", "--out=x.trc", "milc"});
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "record");
    EXPECT_EQ(cli.positional()[1], "milc");
}

TEST(CliParserTest, DefaultsWhenAbsent)
{
    const auto cli = parse({});
    EXPECT_EQ(cli.getString("org", "cameo"), "cameo");
    EXPECT_EQ(cli.getUint("n", 42), 42u);
    EXPECT_DOUBLE_EQ(cli.getDouble("x", 1.5), 1.5);
}

TEST(CliParserTest, BadIntegerRecordsError)
{
    const auto cli = parse({"--accesses=abc"});
    EXPECT_EQ(cli.getUint("accesses", 9), 9u);
    ASSERT_EQ(cli.errors().size(), 1u);
    EXPECT_NE(cli.errors()[0].find("accesses"), std::string::npos);
}

TEST(CliParserTest, UnknownFlagsDetected)
{
    const auto cli = parse({"--known=1", "--typo=2"});
    (void)cli.getUint("known");
    const auto unknown = cli.unknownFlags();
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "typo");
}

TEST(CliParserTest, DoubleParsing)
{
    const auto cli = parse({"--scale=2.5", "--bad=zz"});
    EXPECT_DOUBLE_EQ(cli.getDouble("scale"), 2.5);
    EXPECT_DOUBLE_EQ(cli.getDouble("bad", 3.0), 3.0);
    EXPECT_EQ(cli.errors().size(), 1u);
}

TEST(CliParserTest, IntegerRejectsTrailingGarbage)
{
    // "--cores=8x" must not silently parse as 8.
    const auto cli = parse({"--cores=8x"});
    EXPECT_EQ(cli.getUint("cores", 4), 4u);
    ASSERT_EQ(cli.errors().size(), 1u);
    EXPECT_NE(cli.errors()[0].find("cores"), std::string::npos);
}

TEST(CliParserTest, IntegerRejectsSignsWhitespaceAndEmpty)
{
    // strtoull would wrap "-5" to a huge value; the parser must not.
    const auto cli =
        parse({"--neg=-5", "--pos=+5", "--ws= 5", "--empty="});
    EXPECT_EQ(cli.getUint("neg", 7), 7u);
    EXPECT_EQ(cli.getUint("pos", 7), 7u);
    EXPECT_EQ(cli.getUint("ws", 7), 7u);
    EXPECT_EQ(cli.getUint("empty", 7), 7u);
    EXPECT_EQ(cli.errors().size(), 4u);
}

TEST(CliParserTest, IntegerRejectsOverflow)
{
    // One past 2^64 - 1: strtoull saturates with ERANGE.
    const auto cli = parse({"--n=18446744073709551616"});
    EXPECT_EQ(cli.getUint("n", 3), 3u);
    ASSERT_EQ(cli.errors().size(), 1u);
    EXPECT_NE(cli.errors()[0].find("range"), std::string::npos);
    // The exact maximum still parses.
    const auto max_cli = parse({"--n=18446744073709551615"});
    EXPECT_EQ(max_cli.getUint("n"), ~std::uint64_t{0});
    EXPECT_TRUE(max_cli.errors().empty());
}

TEST(CliParserTest, DoubleRejectsPartialAndNonFinite)
{
    const auto cli = parse({"--a=2.5x", "--b=1e999", "--c=nan",
                            "--d= 1.5", "--e="});
    EXPECT_DOUBLE_EQ(cli.getDouble("a", 9.0), 9.0);
    EXPECT_DOUBLE_EQ(cli.getDouble("b", 9.0), 9.0);
    EXPECT_DOUBLE_EQ(cli.getDouble("c", 9.0), 9.0);
    EXPECT_DOUBLE_EQ(cli.getDouble("d", 9.0), 9.0);
    EXPECT_DOUBLE_EQ(cli.getDouble("e", 9.0), 9.0);
    EXPECT_EQ(cli.errors().size(), 5u);
    // Scientific notation and negatives remain valid doubles.
    const auto ok = parse({"--x=-1.5e3"});
    EXPECT_DOUBLE_EQ(ok.getDouble("x"), -1500.0);
    EXPECT_TRUE(ok.errors().empty());
}

TEST(JsonDumpTest, WellFormedAndComplete)
{
    StatRegistry reg;
    Counter c("alpha.count", "desc");
    c.inc(123);
    Distribution d("beta.dist", "desc");
    d.sample(10);
    d.sample(20);
    reg.add(c);
    reg.add(d);
    std::ostringstream out;
    reg.dumpJson(out);
    const std::string s = out.str();
    EXPECT_NE(s.find("\"alpha.count\": 123"), std::string::npos);
    EXPECT_NE(s.find("\"beta.dist\""), std::string::npos);
    EXPECT_NE(s.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(s.find("\"mean\": 15"), std::string::npos);
    // Crude structural sanity: balanced braces, no trailing comma.
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
              std::count(s.begin(), s.end(), '}'));
    EXPECT_EQ(s.find(",\n}"), std::string::npos);
}

TEST(RefreshTest, DisabledByDefault)
{
    const DramTimings t = offchipTimings();
    EXPECT_EQ(t.tRefi, 0u);
    DramModule mod("t", t, 1 << 20);
    mod.request(0, 0, false, 64);
    EXPECT_EQ(mod.refreshStalls().value(), 0u);
}

TEST(RefreshTest, StallsAccessesInRefreshWindow)
{
    DramTimings t = offchipTimings();
    t.tRefi = 1000; // 4000 cpu cycles
    t.tRfc = 100;   // 400 cpu cycles
    DramModule mod("t", t, 1 << 20);
    // An access at the very start of a refresh window is pushed past
    // it: latency = rfc + idle latency.
    const Tick done = mod.request(0, 0, false, 64);
    EXPECT_EQ(done, t.rfcCycles() + t.idleLatency(64));
    EXPECT_EQ(mod.refreshStalls().value(), 1u);
    // An access in the middle of the period is unaffected.
    const Tick mid = t.refiCycles() / 2;
    const Tick done2 = mod.request(mid, 1, false, 64);
    EXPECT_EQ(done2, mid + t.idleLatency(64));
    EXPECT_EQ(mod.refreshStalls().value(), 1u);
}

TEST(RefreshTest, PeriodicityAcrossWindows)
{
    DramTimings t = offchipTimings();
    t.tRefi = 1000;
    t.tRfc = 100;
    DramModule mod("t", t, 1 << 20);
    // Hit the start of several consecutive refresh windows.
    for (int k = 1; k <= 5; ++k)
        mod.request(static_cast<Tick>(k) * t.refiCycles() + 1,
                    static_cast<std::uint64_t>(k) * 1000, false, 64);
    EXPECT_EQ(mod.refreshStalls().value(), 5u);
}

TEST(RefreshTest, ThroughputCostMatchesDutyCycle)
{
    // With tRFC/tREFI = 10%, a saturating stream should lose roughly
    // that fraction of throughput.
    DramTimings t = offchipTimings();
    DramModule plain("p", t, 1 << 22);
    t.tRefi = 1000;
    t.tRfc = 100;
    DramModule refreshed("r", t, 1 << 22);
    Tick done_p = 0, done_r = 0;
    for (int i = 0; i < 20000; ++i) {
        done_p = plain.request(0, static_cast<std::uint64_t>(i) % 60000,
                               false, 64);
        done_r = refreshed.request(0,
                                   static_cast<std::uint64_t>(i) % 60000,
                                   false, 64);
    }
    const double ratio =
        static_cast<double>(done_r) / static_cast<double>(done_p);
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 1.35);
}

TEST(ParseUintStrictTest, AcceptsPlainDecimal)
{
    std::uint64_t out = 0;
    EXPECT_EQ(parseUintStrict("0", out), ParseUintStatus::Ok);
    EXPECT_EQ(out, 0u);
    EXPECT_EQ(parseUintStrict("200000", out), ParseUintStatus::Ok);
    EXPECT_EQ(out, 200'000u);
    EXPECT_EQ(parseUintStrict("18446744073709551615", out),
              ParseUintStatus::Ok);
    EXPECT_EQ(out, UINT64_MAX);
}

TEST(ParseUintStrictTest, RejectsTrailingGarbage)
{
    // strtoull would silently accept all of these (value 12 / 0).
    std::uint64_t out = 0;
    EXPECT_EQ(parseUintStrict("12x", out), ParseUintStatus::Invalid);
    EXPECT_EQ(parseUintStrict("12 ", out), ParseUintStatus::Invalid);
    EXPECT_EQ(parseUintStrict(" 12", out), ParseUintStatus::Invalid);
    EXPECT_EQ(parseUintStrict("0x10", out), ParseUintStatus::Invalid);
    EXPECT_EQ(parseUintStrict("12.5", out), ParseUintStatus::Invalid);
    EXPECT_EQ(parseUintStrict("-3", out), ParseUintStatus::Invalid);
    EXPECT_EQ(parseUintStrict("+3", out), ParseUintStatus::Invalid);
    EXPECT_EQ(parseUintStrict("", out), ParseUintStatus::Invalid);
}

TEST(ParseUintStrictTest, RejectsOverflow)
{
    std::uint64_t out = 0;
    EXPECT_EQ(parseUintStrict("18446744073709551616", out),
              ParseUintStatus::Overflow);
    EXPECT_EQ(parseUintStrict("99999999999999999999999", out),
              ParseUintStatus::Overflow);
}

TEST(EnvUintTest, ReadsWellFormedValue)
{
    ASSERT_EQ(setenv("CAMEO_TEST_ENV_UINT", "4096", 1), 0);
    std::string error;
    const auto value = envUint("CAMEO_TEST_ENV_UINT", &error);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, 4096u);
    EXPECT_TRUE(error.empty());
    unsetenv("CAMEO_TEST_ENV_UINT");
}

TEST(EnvUintTest, UnsetIsSilentlyAbsent)
{
    unsetenv("CAMEO_TEST_ENV_UINT");
    std::string error;
    EXPECT_FALSE(envUint("CAMEO_TEST_ENV_UINT", &error).has_value());
    EXPECT_TRUE(error.empty());
}

TEST(EnvUintTest, MalformedValueReportsError)
{
    ASSERT_EQ(setenv("CAMEO_TEST_ENV_UINT", "20000f", 1), 0);
    std::string error;
    EXPECT_FALSE(envUint("CAMEO_TEST_ENV_UINT", &error).has_value());
    EXPECT_EQ(error, "CAMEO_TEST_ENV_UINT: expected an unsigned "
                     "integer, got '20000f'");

    ASSERT_EQ(setenv("CAMEO_TEST_ENV_UINT", "18446744073709551616", 1),
              0);
    EXPECT_FALSE(envUint("CAMEO_TEST_ENV_UINT", &error).has_value());
    EXPECT_EQ(error, "CAMEO_TEST_ENV_UINT: value out of range: "
                     "'18446744073709551616'");
    unsetenv("CAMEO_TEST_ENV_UINT");
}

TEST(CliParserTest, GetUintRejectsTrailingGarbage)
{
    const auto cli = parse({"--accesses=12x"});
    EXPECT_EQ(cli.getUint("accesses", 7), 7u);
    ASSERT_EQ(cli.errors().size(), 1u);
    EXPECT_NE(cli.errors()[0].find("expected an integer"),
              std::string::npos);
}

} // namespace
} // namespace cameo
