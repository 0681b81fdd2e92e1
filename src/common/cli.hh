/**
 * @file
 * Tiny command-line flag parser used by benches and examples.
 *
 * Accepts flags of the form --key=value or --key value, plus bare
 * --flag booleans. Unknown flags are fatal so that typos in sweep
 * scripts fail loudly instead of silently running defaults.
 */

#ifndef TOLTIERS_COMMON_CLI_HH
#define TOLTIERS_COMMON_CLI_HH

#include <map>
#include <string>
#include <vector>

namespace toltiers::common {

/** Parsed command line: flag map plus positional arguments. */
class CliArgs
{
  public:
    /**
     * Parse argv. @param known the set of accepted flag names
     * (without the leading dashes); pass an empty set to accept any.
     */
    CliArgs(int argc, const char *const *argv,
            const std::vector<std::string> &known = {});

    /** True if the flag was present. */
    bool has(const std::string &key) const;

    /** String value, or fallback if absent. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** Integer value, or fallback if absent; fatal() on parse error. */
    long getInt(const std::string &key, long fallback) const;

    /** Double value, or fallback if absent; fatal() on parse error. */
    double getDouble(const std::string &key, double fallback) const;

    /** Boolean flag; bare "--flag" counts as true. */
    bool getBool(const std::string &key, bool fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

/**
 * The telemetry flags every toltiers binary accepts, appended to a
 * binary's own flag names: --log-level (quiet|warn|inform|debug),
 * --metrics-out (metrics snapshot path, format by extension), and
 * --trace-out (JSONL trace log path).
 */
std::vector<std::string>
telemetryFlags(std::vector<std::string> extra = {});

/** Apply --log-level to the global log threshold if present. */
void applyLogLevel(const CliArgs &args);

} // namespace toltiers::common

#endif // TOLTIERS_COMMON_CLI_HH
