#include "util/cli.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/env.hh"

namespace cameo
{

CliParser::CliParser(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const std::size_t eq = body.find('=');
        if (eq != std::string::npos) {
            flags_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // --key value (if the next token is not itself a flag),
        // otherwise a bare boolean flag.
        if (i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flags_[body] = argv[++i];
        } else {
            flags_[body] = "";
        }
    }
}

bool
CliParser::has(const std::string &name) const
{
    queried_.push_back(name);
    return flags_.contains(name);
}

std::string
CliParser::getString(const std::string &name, const std::string &def) const
{
    queried_.push_back(name);
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

std::uint64_t
CliParser::getUint(const std::string &name, std::uint64_t def,
                   std::uint64_t max) const
{
    queried_.push_back(name);
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string &text = it->second;
    // Strict shared grammar (util/env.hh): one or more decimal digits
    // and nothing else. This rejects partial parses ("8x"), signs
    // ("-5" would wrap through strtoull to a huge value), whitespace,
    // empty values, and overflow.
    std::uint64_t v = 0;
    switch (parseUintStrict(text, v)) {
      case ParseUintStatus::Ok:
        if (v <= max)
            return v;
        errors_.push_back("--" + name + ": value out of range: '" + text +
                          "' (max " + std::to_string(max) + ")");
        return def;
      case ParseUintStatus::Invalid:
        errors_.push_back("--" + name + ": expected an integer, got '" +
                          text + "'");
        return def;
      case ParseUintStatus::Overflow:
        errors_.push_back("--" + name + ": value out of range: '" + text +
                          "'");
        return def;
    }
    return def;
}

double
CliParser::getDouble(const std::string &name, double def) const
{
    queried_.push_back(name);
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string &text = it->second;
    char *end = nullptr;
    const double v =
        text.empty() ? 0.0 : std::strtod(text.c_str(), &end);
    // The whole token must parse (no "2.5x"), with no leading
    // whitespace (strtod would silently skip it), and the result must
    // be finite (rejects "inf", "nan", and overflowing exponents).
    const bool whole_token =
        !text.empty() && end == text.c_str() + text.size() &&
        std::isspace(static_cast<unsigned char>(text.front())) == 0;
    if (!whole_token || !std::isfinite(v)) {
        errors_.push_back("--" + name + ": expected a finite number, "
                          "got '" + text + "'");
        return def;
    }
    return v;
}

bool
CliParser::getBool(const std::string &name, bool def) const
{
    queried_.push_back(name);
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    const std::string &text = it->second;
    if (text.empty() || text == "true" || text == "1")
        return true;
    if (text == "false" || text == "0")
        return false;
    errors_.push_back("--" + name + ": expected true/false/1/0, got '" +
                      text + "'");
    return def;
}

std::vector<std::string>
CliParser::unknownFlags() const
{
    std::vector<std::string> unknown;
    for (const auto &[name, value] : flags_) {
        if (std::find(queried_.begin(), queried_.end(), name) ==
            queried_.end()) {
            unknown.push_back(name);
        }
    }
    return unknown;
}

} // namespace cameo
