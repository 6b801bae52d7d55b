/**
 * @file
 * Minimal command-line flag parser for the tools and examples.
 *
 * Accepts --key=value, --key value, and bare --flag (boolean true);
 * everything else is a positional argument. Typed getters apply
 * defaults and record unknown-flag / bad-value errors for the caller
 * to report.
 */

#ifndef CAMEO_UTIL_CLI_HH
#define CAMEO_UTIL_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cameo
{

/** Parsed command line with typed accessors. */
class CliParser
{
  public:
    /** Parse argv; argv[0] is skipped. */
    CliParser(int argc, const char *const *argv);

    /** True if --name was present (with or without a value). */
    bool has(const std::string &name) const;

    /** String flag; @p def when absent. */
    std::string getString(const std::string &name,
                          const std::string &def = "") const;

    /** Unsigned integer flag; @p def when absent. The whole value must
     *  be decimal digits: partial parses ("8x"), signs, and values
     *  above @p max (so a caller narrowing to a smaller type never
     *  wraps) record an error and return @p def. */
    std::uint64_t getUint(const std::string &name, std::uint64_t def = 0,
                          std::uint64_t max = UINT64_MAX) const;

    /** Double flag; @p def when absent. The whole value must parse to
     *  a finite double; anything else records an error and returns
     *  @p def. */
    double getDouble(const std::string &name, double def = 0.0) const;

    /** Boolean flag: present without a value, or =true/=1, is true;
     *  =false/=0 is false. Any other value (including a positional
     *  word read as the value of a bare --flag) records an error and
     *  returns @p def. */
    bool getBool(const std::string &name, bool def = false) const;

    /** Positional (non-flag) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Flags seen on the command line but never queried. Call after
     *  all getters to reject typos. */
    std::vector<std::string> unknownFlags() const;

    /** Parse/value errors accumulated by the getters. */
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
    mutable std::vector<std::string> queried_;
    mutable std::vector<std::string> errors_;
};

} // namespace cameo

#endif // CAMEO_UTIL_CLI_HH
