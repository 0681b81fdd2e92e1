#include "common/cli.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"
#include "common/strings.hh"

namespace toltiers::common {

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::vector<std::string> &known)
{
    auto is_known = [&](const std::string &k) {
        return known.empty() ||
               std::find(known.begin(), known.end(), k) != known.end();
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::string key, value;
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            key = body.substr(0, eq);
            value = body.substr(eq + 1);
        } else {
            key = body;
            // "--key value" form: consume the next token if it is not
            // itself a flag.
            if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
                value = argv[++i];
            } else {
                value = "true";
            }
        }
        if (!is_known(key))
            fatal("unknown flag --", key);
        flags_[key] = value;
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return flags_.count(key) > 0;
}

std::string
CliArgs::getString(const std::string &key,
                   const std::string &fallback) const
{
    auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
}

long
CliArgs::getInt(const std::string &key, long fallback) const
{
    auto it = flags_.find(key);
    if (it == flags_.end())
        return fallback;
    char *end = nullptr;
    long v = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --", key, " expects an integer, got '", it->second,
              "'");
    return v;
}

double
CliArgs::getDouble(const std::string &key, double fallback) const
{
    auto it = flags_.find(key);
    if (it == flags_.end())
        return fallback;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("flag --", key, " expects a number, got '", it->second,
              "'");
    return v;
}

std::vector<std::string>
telemetryFlags(std::vector<std::string> extra)
{
    extra.push_back("log-level");
    extra.push_back("metrics-out");
    extra.push_back("metrics-legacy-aliases");
    extra.push_back("trace-out");
    return extra;
}

void
applyLogLevel(const CliArgs &args)
{
    if (args.has("log-level"))
        setLogLevel(parseLogLevel(args.getString("log-level", "")));
}

bool
CliArgs::getBool(const std::string &key, bool fallback) const
{
    auto it = flags_.find(key);
    if (it == flags_.end())
        return fallback;
    std::string v = toLower(it->second);
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("flag --", key, " expects a boolean, got '", it->second, "'");
}

} // namespace toltiers::common
