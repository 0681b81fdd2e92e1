#include "obs/export.hh"

#include <algorithm>
#include <cinttypes>
#include <fstream>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace toltiers::obs {

using common::fatal;
using common::inform;

namespace {

std::string
prometheusLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : sorted) {
        if (!first)
            out += ",";
        first = false;
        out += k;
        out += "=\"";
        out += escapePrometheusLabelValue(v);
        out += "\"";
    }
    out += "}";
    return out;
}

/** Append one extra label to a set (for the histogram `le` label). */
std::string
prometheusLabelsWith(const Labels &labels, const std::string &key,
                     const std::string &value)
{
    Labels extended = labels;
    extended.emplace_back(key, value);
    return prometheusLabels(extended);
}

std::string
formatNumber(double v)
{
    // Round-trippable shortest representation; Prometheus accepts
    // scientific notation.
    return common::strprintf("%.17g", v);
}

std::string
formatBound(double v)
{
    return common::strprintf("%g", v);
}

} // namespace

std::string
escapePrometheusLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

void
exportPrometheus(const Registry &registry, std::ostream &os)
{
    std::string last_name;
    for (const SeriesSnapshot &s : registry.snapshot()) {
        if (s.name != last_name) {
            if (!s.help.empty())
                os << "# HELP " << s.name << " " << s.help << "\n";
            os << "# TYPE " << s.name << " "
               << metricKindName(s.kind) << "\n";
            last_name = s.name;
        }
        if (s.kind != MetricKind::Histogram) {
            os << s.name << prometheusLabels(s.labels) << " "
               << formatNumber(s.value) << "\n";
            continue;
        }
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < s.hist.counts.size(); ++b) {
            cumulative += s.hist.counts[b];
            std::string le = b < s.hist.bounds.size()
                                 ? formatBound(s.hist.bounds[b])
                                 : "+Inf";
            os << s.name << "_bucket"
               << prometheusLabelsWith(s.labels, "le", le) << " "
               << cumulative << "\n";
        }
        os << s.name << "_sum" << prometheusLabels(s.labels) << " "
           << formatNumber(s.hist.sum) << "\n";
        os << s.name << "_count" << prometheusLabels(s.labels) << " "
           << s.hist.count << "\n";
    }
}

void
exportJson(const Registry &registry, std::ostream &os)
{
    common::JsonWriter w(os);
    w.beginObject();
    w.beginArray("metrics");
    for (const SeriesSnapshot &s : registry.snapshot()) {
        w.beginObject();
        w.member("name", s.name);
        w.member("kind", metricKindName(s.kind));
        if (!s.help.empty())
            w.member("help", s.help);
        w.beginObject("labels");
        for (const auto &[k, v] : s.labels)
            w.member(k, v);
        w.endObject();
        if (s.kind != MetricKind::Histogram) {
            w.member("value", s.value);
        } else {
            w.member("count", static_cast<std::size_t>(s.hist.count));
            w.member("sum", s.hist.sum);
            w.member("min", s.hist.minimum);
            w.member("max", s.hist.maximum);
            w.member("p50", s.hist.quantile(0.50));
            w.member("p95", s.hist.quantile(0.95));
            w.member("p99", s.hist.quantile(0.99));
            w.beginArray("buckets");
            for (std::size_t b = 0; b < s.hist.counts.size(); ++b) {
                w.beginObject();
                if (b < s.hist.bounds.size())
                    w.member("le", s.hist.bounds[b]);
                else
                    w.member("le", "+Inf");
                w.member("count", static_cast<std::size_t>(
                                      s.hist.counts[b]));
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
exportCsv(const Registry &registry, std::ostream &os)
{
    os << "name,kind,labels,value,count,sum,p50,p95,p99\n";
    for (const SeriesSnapshot &s : registry.snapshot()) {
        std::string labels = labelsKey(s.labels);
        // Quote the label column: it contains commas and quotes.
        std::string quoted = "\"";
        for (char c : labels) {
            if (c == '"')
                quoted += '"';
            quoted += c;
        }
        quoted += '"';
        os << s.name << "," << metricKindName(s.kind) << ","
           << quoted << ",";
        if (s.kind != MetricKind::Histogram) {
            os << formatNumber(s.value) << ",,,,,\n";
        } else {
            os << "," << s.hist.count << ","
               << formatNumber(s.hist.sum) << ","
               << formatNumber(s.hist.quantile(0.50)) << ","
               << formatNumber(s.hist.quantile(0.95)) << ","
               << formatNumber(s.hist.quantile(0.99)) << "\n";
        }
    }
}

void
writeSnapshot(const Registry &registry, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open metrics output file '", path, "'");
    if (common::endsWith(path, ".json"))
        exportJson(registry, out);
    else if (common::endsWith(path, ".csv"))
        exportCsv(registry, out);
    else
        exportPrometheus(registry, out);
}

bool
exportForCli(const common::CliArgs &args, const Registry &registry)
{
    std::string path = args.getString("metrics-out", "");
    if (path.empty())
        return false;
    writeSnapshot(registry, path);
    inform("metrics snapshot (", registry.seriesCount(),
           " series) -> ", path);
    return true;
}

} // namespace toltiers::obs
