#include "ttrace/report.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "common/strings.hh"

namespace toltiers::ttrace {

namespace {

/** True when the record has a child of the root with this name. */
bool
rootHasChild(const obs::TraceRecord &record, const char *name)
{
    std::uint64_t root_id = 0;
    for (const obs::SpanRecord &s : record.spans) {
        if (s.parent == 0) {
            root_id = s.id;
            break;
        }
    }
    if (root_id == 0)
        return false;
    for (const obs::SpanRecord &s : record.spans) {
        if (s.parent == root_id && s.name == name)
            return true;
    }
    return false;
}

void
addSample(StageSamples &samples, const char *stage, double v)
{
    samples[stage].push_back(v);
}

} // namespace

StageSamples
collectStageSamples(const std::vector<obs::TraceRecord> &records)
{
    StageSamples samples;
    for (const obs::TraceRecord &r : records) {
        obs::StageBreakdown bd = obs::attributeTrace(r);
        if (rootHasChild(r, "admission"))
            addSample(samples, obs::stage::kAdmission,
                      bd.admission);
        if (rootHasChild(r, "rule_match"))
            addSample(samples, obs::stage::kRoute, bd.route);
        if (rootHasChild(r, "cache_lookup"))
            addSample(samples, obs::stage::kCache, bd.cache);
        if (rootHasChild(r, "execute")) {
            addSample(samples, obs::stage::kExecute, bd.execute);
            addSample(samples, obs::stage::kRetryBackoff,
                      bd.retryBackoff);
            if (bd.hedgeOverlap > 0.0)
                addSample(samples, obs::stage::kHedgeOverlap,
                          bd.hedgeOverlap);
        }
    }
    return samples;
}

double
sampleQuantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * static_cast<double>(samples.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void
printRequestReport(const obs::TraceRecord &record, std::ostream &os)
{
    obs::StageBreakdown bd = obs::attributeTrace(record);
    double root = record.rootDuration();
    os << "trace " << record.traceId << ": "
       << common::strprintf("%.6f", root) << " s total\n";

    auto line = [&](const char *stage, double v) {
        if (v <= 0.0)
            return;
        double share = root > 0.0 ? 100.0 * v / root : 0.0;
        os << common::strprintf("  %-14s %12.6f s  %5.1f%%\n",
                                stage, v, share);
    };
    line(obs::stage::kAdmission, bd.admission);
    line(obs::stage::kRoute, bd.route);
    line(obs::stage::kCache, bd.cache);
    line(obs::stage::kExecute, bd.execute);
    line(obs::stage::kRetryBackoff, bd.retryBackoff);
    if (bd.hedgeOverlap > 0.0) {
        os << common::strprintf(
            "  %-14s %12.6f s  (subset of execute)\n",
            obs::stage::kHedgeOverlap, bd.hedgeOverlap);
    }

    os << "  critical path:\n";
    for (const obs::SpanRecord *span : obs::criticalPath(record)) {
        os << common::strprintf(
            "    %-22s start %10.6f  dur %10.6f", span->name.c_str(),
            span->start, span->duration);
        for (const auto &[k, v] : span->attrs) {
            os << "  " << k << "=" << v;
        }
        os << "\n";
    }
}

void
printAggregateReport(const std::vector<obs::TraceRecord> &records,
                     std::ostream &os)
{
    StageSamples samples = collectStageSamples(records);
    os << records.size() << " traces\n";
    os << common::strprintf(
        "%-14s %8s %12s %12s %12s %12s %7s\n", "stage", "count",
        "total_s", "p50_s", "p95_s", "p99_s", "share");

    // Share is each additive stage's fraction of the total
    // attributed wall time (hedge-overlap is a subset of execute
    // and excluded from the denominator).
    double attributed = 0.0;
    for (const auto &[stage, vals] : samples) {
        if (stage == obs::stage::kHedgeOverlap)
            continue;
        for (double v : vals)
            attributed += v;
    }

    // Print in pipeline order, not map order.
    const char *order[] = {
        obs::stage::kAdmission, obs::stage::kRoute,
        obs::stage::kCache,     obs::stage::kExecute,
        obs::stage::kRetryBackoff, obs::stage::kHedgeOverlap};
    for (const char *stage : order) {
        auto it = samples.find(stage);
        if (it == samples.end())
            continue;
        const std::vector<double> &vals = it->second;
        double total = 0.0;
        for (double v : vals)
            total += v;
        std::string share =
            stage == std::string(obs::stage::kHedgeOverlap)
                ? "  --"
                : common::strprintf(
                      "%6.1f%%",
                      attributed > 0.0 ? 100.0 * total / attributed
                                       : 0.0);
        os << common::strprintf(
            "%-14s %8zu %12.6f %12.6f %12.6f %12.6f %7s\n", stage,
            vals.size(), total, sampleQuantile(vals, 0.50),
            sampleQuantile(vals, 0.95), sampleQuantile(vals, 0.99),
            share.c_str());
    }
}

void
exportChromeTrace(const std::vector<obs::TraceRecord> &records,
                  std::ostream &os)
{
    common::JsonWriter w(os);
    w.beginObject();
    w.member("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    for (const obs::TraceRecord &r : records) {
        for (const obs::SpanRecord &s : r.spans) {
            w.beginObject();
            w.member("name", s.name);
            w.member("cat", "toltiers");
            w.member("ph", "X");
            // trace_event timestamps are microseconds.
            w.member("ts", s.start * 1e6);
            w.member("dur", s.duration * 1e6);
            w.member("pid",
                     static_cast<std::size_t>(r.traceId));
            w.member("tid", static_cast<std::size_t>(1));
            if (!s.attrs.empty()) {
                w.beginObject("args");
                for (const auto &[k, v] : s.attrs)
                    w.member(k, v);
                w.endObject();
            }
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace toltiers::ttrace
