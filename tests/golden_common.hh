/**
 * @file
 * Shared machinery of the golden-stats regression suites: the tracked
 * stat set and its canonical rendering, the minimal JSON parser for
 * the checked-in reference files, the matrix runner (on the parallel
 * sweep engine), and the compare/regenerate drivers. test_golden.cc
 * pins Blocking timing against tests/golden/golden_stats.json;
 * test_golden_queued.cc pins Queued timing against its own reference —
 * the two matrices live in separate files so each suite can assert
 * exact coverage of its own run set.
 */

#ifndef CAMEO_GOLDEN_COMMON_HH
#define CAMEO_GOLDEN_COMMON_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.hh"
#include "system/system.hh"
#include "trace/workloads.hh"

namespace cameo::golden
{

/** Workloads of the pinned matrix (one latency- one capacity-bound). */
inline const std::vector<std::string> kGoldenWorkloads{"mcf", "milc"};

/** Organizations of the pinned matrix. */
inline const std::vector<std::pair<std::string, OrgKind>> kGoldenOrgs{
    {"Baseline", OrgKind::Baseline},
    {"Cache", OrgKind::AlloyCache},
    {"CAMEO", OrgKind::Cameo},
    {"CAMEO-Freq", OrgKind::CameoFreq},
    {"DoubleUse", OrgKind::DoubleUse},
};

/** Format a double so it round-trips exactly through the JSON. */
inline std::string
formatDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Tracked stats, each rendered to its canonical string form. */
inline const std::vector<
    std::pair<std::string, std::function<std::string(const RunResult &)>>>
    kTrackedStats{
        {"execTime",
         [](const RunResult &r) { return std::to_string(r.execTime); }},
        {"kernelSteps",
         [](const RunResult &r) { return std::to_string(r.kernelSteps); }},
        {"instructions",
         [](const RunResult &r) {
             return std::to_string(r.instructions);
         }},
        {"accesses",
         [](const RunResult &r) { return std::to_string(r.accesses); }},
        {"warmupAccesses",
         [](const RunResult &r) {
             return std::to_string(r.warmupAccesses);
         }},
        {"l3Hits",
         [](const RunResult &r) { return std::to_string(r.l3Hits); }},
        {"l3Misses",
         [](const RunResult &r) { return std::to_string(r.l3Misses); }},
        {"stackedBytes",
         [](const RunResult &r) {
             return std::to_string(r.stackedBytes);
         }},
        {"offchipBytes",
         [](const RunResult &r) {
             return std::to_string(r.offchipBytes);
         }},
        {"storageBytes",
         [](const RunResult &r) {
             return std::to_string(r.storageBytes);
         }},
        {"majorFaults",
         [](const RunResult &r) { return std::to_string(r.majorFaults); }},
        {"minorFaults",
         [](const RunResult &r) { return std::to_string(r.minorFaults); }},
        {"servicedStacked",
         [](const RunResult &r) {
             return std::to_string(r.servicedStacked);
         }},
        {"servicedOffchip",
         [](const RunResult &r) {
             return std::to_string(r.servicedOffchip);
         }},
        {"swaps",
         [](const RunResult &r) { return std::to_string(r.swaps); }},
        {"llpAccuracy",
         [](const RunResult &r) { return formatDouble(r.llpAccuracy); }},
    };

using StatMap = std::map<std::string, std::string>;
using GoldenMap = std::map<std::string, StatMap>;

/** Run the golden matrix on the sweep engine; key -> stat -> value. */
inline GoldenMap
simulateGoldenMatrix(const SystemConfig &config)
{
    std::vector<std::string> keys;
    std::vector<SweepJob> jobs;
    for (const std::string &wl_name : kGoldenWorkloads) {
        const WorkloadProfile *wl = findWorkload(wl_name);
        EXPECT_NE(wl, nullptr) << wl_name;
        for (const auto &[org_label, kind] : kGoldenOrgs) {
            keys.push_back(wl_name + "/" + org_label);
            jobs.push_back({keys.back(), [config, kind, wl] {
                                return runWorkload(config, kind, *wl);
                            }});
        }
    }
    const std::vector<RunResult> results =
        SweepRunner().run(std::move(jobs));

    GoldenMap out;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        StatMap stats;
        for (const auto &[stat, render] : kTrackedStats)
            stats[stat] = render(results[i]);
        out[keys[i]] = std::move(stats);
    }
    return out;
}

/**
 * Minimal parser for the golden file's JSON subset: one flat object of
 * "run-key" -> object of "stat" -> number. Returns nullopt (with a
 * test failure naming the offset) on malformed input.
 */
inline std::optional<GoldenMap>
parseGolden(const std::string &text)
{
    std::size_t pos = 0;
    const auto skip_ws = [&] {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
            ++pos;
        }
    };
    const auto fail = [&](const std::string &what) {
        ADD_FAILURE() << "golden JSON parse error at offset " << pos
                      << ": " << what;
        return std::nullopt;
    };
    const auto parse_string = [&]() -> std::optional<std::string> {
        if (pos >= text.size() || text[pos] != '"')
            return std::nullopt;
        const std::size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            return std::nullopt;
        std::string out = text.substr(pos + 1, end - pos - 1);
        pos = end + 1;
        return out;
    };
    const auto parse_number = [&]() -> std::optional<std::string> {
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
        }
        if (pos == start)
            return std::nullopt;
        return text.substr(start, pos - start);
    };
    const auto expect = [&](char c) {
        skip_ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    };

    GoldenMap out;
    if (!expect('{'))
        return fail("expected '{'");
    skip_ws();
    if (pos < text.size() && text[pos] == '}')
        return out;
    while (true) {
        skip_ws();
        const auto run_key = parse_string();
        if (!run_key)
            return fail("expected run key string");
        if (!expect(':') || !expect('{'))
            return fail("expected ': {' after run key");
        StatMap stats;
        skip_ws();
        while (pos < text.size() && text[pos] != '}') {
            const auto stat = parse_string();
            if (!stat)
                return fail("expected stat name string");
            if (!expect(':'))
                return fail("expected ':' after stat name");
            skip_ws();
            const auto value = parse_number();
            if (!value)
                return fail("expected numeric value");
            stats[*stat] = *value;
            if (!expect(','))
                break;
            skip_ws();
        }
        if (!expect('}'))
            return fail("expected '}' closing run object");
        out[*run_key] = std::move(stats);
        if (!expect(','))
            break;
    }
    if (!expect('}'))
        return fail("expected '}' closing golden object");
    return out;
}

/** Serialize in canonical form: sorted keys, one stat per line. */
inline std::string
renderGolden(const GoldenMap &golden)
{
    std::ostringstream os;
    os << "{\n";
    bool first_run = true;
    for (const auto &[run_key, stats] : golden) {
        if (!first_run)
            os << ",\n";
        first_run = false;
        os << "  \"" << run_key << "\": {\n";
        bool first_stat = true;
        for (const auto &[stat, value] : stats) {
            if (!first_stat)
                os << ",\n";
            first_stat = false;
            os << "    \"" << stat << "\": " << value;
        }
        os << "\n  }";
    }
    os << "\n}\n";
    return os.str();
}

/** Values match when textually equal or numerically within 1e-9. */
inline bool
valuesMatch(const std::string &golden, const std::string &actual)
{
    if (golden == actual)
        return true;
    char *end_g = nullptr;
    char *end_a = nullptr;
    const double g = std::strtod(golden.c_str(), &end_g);
    const double a = std::strtod(actual.c_str(), &end_a);
    if (end_g != golden.c_str() + golden.size() ||
        end_a != actual.c_str() + actual.size()) {
        return false;
    }
    const double scale = std::max({1.0, std::abs(g), std::abs(a)});
    return std::abs(g - a) <= 1e-9 * scale;
}

/**
 * Compare @p actual against the reference at @p path, reporting every
 * drifted stat in one readable diff. With CAMEO_UPDATE_GOLDEN set,
 * rewrite the reference instead and skip.
 */
inline void
compareAgainstReference(const GoldenMap &actual, const char *path)
{
    if (std::getenv("CAMEO_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << renderGolden(actual);
        out.close();
        ASSERT_FALSE(out.fail());
        GTEST_SKIP() << "rewrote " << path
                     << "; commit it with the change that moved the "
                        "numbers";
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing " << path
                    << " (regenerate with CAMEO_UPDATE_GOLDEN=1)";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto golden = parseGolden(buffer.str());
    ASSERT_TRUE(golden.has_value());

    // Collect every drifted stat before failing, so one look at the
    // test log shows the whole picture.
    std::vector<std::string> diffs;
    for (const auto &[run_key, golden_stats] : *golden) {
        const auto run = actual.find(run_key);
        if (run == actual.end()) {
            diffs.push_back(run_key +
                            ": in golden file but not simulated");
            continue;
        }
        for (const auto &[stat, golden_value] : golden_stats) {
            const auto it = run->second.find(stat);
            if (it == run->second.end()) {
                diffs.push_back(run_key + "." + stat +
                                ": in golden file but no longer tracked");
                continue;
            }
            if (!valuesMatch(golden_value, it->second)) {
                diffs.push_back(run_key + "." + stat + ": golden=" +
                                golden_value + " actual=" + it->second);
            }
        }
    }
    for (const auto &[run_key, stats] : actual) {
        if (golden->find(run_key) == golden->end()) {
            diffs.push_back(run_key +
                            ": simulated but missing from golden file");
        }
    }

    std::ostringstream report;
    report << diffs.size() << " golden-stat mismatch(es):\n";
    for (const std::string &diff : diffs)
        report << "  " << diff << "\n";
    report << "If this drift is intentional, regenerate with "
              "CAMEO_UPDATE_GOLDEN=1 and commit the new reference.";
    EXPECT_TRUE(diffs.empty()) << report.str();
}

/** Assert the reference at @p path covers the exact matrix. */
inline void
expectFullCoverage(const char *path)
{
    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto golden = parseGolden(buffer.str());
    ASSERT_TRUE(golden.has_value());
    EXPECT_EQ(golden->size(),
              kGoldenWorkloads.size() * kGoldenOrgs.size());
    for (const auto &[run_key, stats] : *golden) {
        EXPECT_EQ(stats.size(), kTrackedStats.size())
            << run_key << " is missing tracked stats";
    }
}

} // namespace cameo::golden

#endif // CAMEO_GOLDEN_COMMON_HH
