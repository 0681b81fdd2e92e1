#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace toltiers::obs {

using common::panic;

namespace {

std::atomic<bool> g_metrics_enabled{true};

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Lower `target` to x if x is smaller (lock-free running min). */
void
atomicMin(std::atomic<double> &target, double x)
{
    double cur = target.load(std::memory_order_relaxed);
    while (x < cur &&
           !target.compare_exchange_weak(cur, x,
                                         std::memory_order_relaxed)) {
    }
}

/** Raise `target` to x if x is larger (lock-free running max). */
void
atomicMax(std::atomic<double> &target, double x)
{
    double cur = target.load(std::memory_order_relaxed);
    while (x > cur &&
           !target.compare_exchange_weak(cur, x,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

std::size_t
Counter::stripeIndex()
{
    static std::atomic<std::size_t> next{0};
    thread_local std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return idx;
}

void
setMetricsEnabled(bool enabled)
{
    g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool
metricsEnabled()
{
    return g_metrics_enabled.load(std::memory_order_relaxed);
}

std::string
labelsKey(const Labels &labels)
{
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string out;
    for (const auto &[k, v] : sorted) {
        if (!out.empty())
            out += ',';
        out += k;
        out += "=\"";
        out += v;
        out += '"';
    }
    return out;
}

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "unknown";
}

// ------------------------------------------------------------ histogram

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * static_cast<double>(count);

    double below = 0.0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        double in_bucket = static_cast<double>(counts[b]);
        if (in_bucket == 0.0 || below + in_bucket < target) {
            below += in_bucket;
            continue;
        }
        // The target rank falls in bucket b. Interpolate between
        // the bucket's edges; the open edges fall back to the
        // observed extremes so estimates never leave [min, max].
        double lo = b == 0 ? minimum : bounds[b - 1];
        double hi = b < bounds.size() ? bounds[b] : maximum;
        lo = std::max(lo, minimum);
        hi = std::min(hi, maximum);
        if (hi <= lo)
            return lo;
        double frac = (target - below) / in_bucket;
        return lo + frac * (hi - lo);
    }
    return maximum;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(std::make_unique<std::atomic<std::uint64_t>[]>(
          bounds_.size() + 1))
{
    TT_ASSERT(!bounds_.empty(), "histogram needs at least one bound");
    TT_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "histogram bounds must be strictly ascending");
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
        counts_[b].store(0, std::memory_order_relaxed);
    min_.store(kInf, std::memory_order_relaxed);
    max_.store(-kInf, std::memory_order_relaxed);
}

void
Histogram::observe(double x)
{
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    std::size_t b =
        static_cast<std::size_t>(it - bounds_.begin());
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(x, std::memory_order_relaxed);
    atomicMin(min_, x);
    atomicMax(max_, x);
    count_.fetch_add(1, std::memory_order_relaxed);
}

void
Histogram::merge(const Histogram &other)
{
    TT_ASSERT(bounds_ == other.bounds_,
              "can only merge histograms with identical bounds");
    HistogramSnapshot theirs = other.snapshot();
    for (std::size_t b = 0; b < theirs.counts.size(); ++b) {
        counts_[b].fetch_add(theirs.counts[b],
                             std::memory_order_relaxed);
    }
    sum_.fetch_add(theirs.sum, std::memory_order_relaxed);
    if (theirs.count > 0) {
        atomicMin(min_, theirs.minimum);
        atomicMax(max_, theirs.maximum);
        count_.fetch_add(theirs.count, std::memory_order_relaxed);
    }
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.bounds = bounds_;
    s.counts.resize(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
        s.counts[b] = counts_[b].load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    double lo = min_.load(std::memory_order_relaxed);
    double hi = max_.load(std::memory_order_relaxed);
    // Map the empty-state sentinels back to the documented zeros.
    s.minimum = lo == kInf ? 0.0 : lo;
    s.maximum = hi == -kInf ? 0.0 : hi;
    return s;
}

double
Histogram::mean() const
{
    HistogramSnapshot s = snapshot();
    return s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0;
}

std::vector<double>
defaultLatencyBounds()
{
    return {0.001, 0.0025, 0.005, 0.01,  0.025, 0.05, 0.1,
            0.25,  0.5,    1.0,   2.5,   5.0,   10.0};
}

std::vector<double>
exponentialBounds(double lo, double hi, std::size_t count)
{
    TT_ASSERT(lo > 0.0 && hi > lo && count >= 2,
              "invalid exponential bucket spec");
    std::vector<double> out;
    out.reserve(count);
    double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(count - 1));
    double v = lo;
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(v);
        v *= ratio;
    }
    out.back() = hi;
    return out;
}

std::vector<double>
linearBounds(double lo, double hi, std::size_t count)
{
    TT_ASSERT(hi > lo && count >= 2, "invalid linear bucket spec");
    std::vector<double> out;
    out.reserve(count);
    double step = (hi - lo) / static_cast<double>(count - 1);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(lo + step * static_cast<double>(i));
    return out;
}

// ------------------------------------------------------------- registry

Registry::Family &
Registry::family(const std::string &name, MetricKind kind,
                 const std::string &help)
{
    auto [it, inserted] = families_.try_emplace(name);
    if (inserted) {
        it->second.kind = kind;
        it->second.help = help;
    } else if (it->second.kind != kind) {
        panic("metric '", name, "' registered as ",
              metricKindName(it->second.kind), ", requested as ",
              metricKindName(kind));
    }
    if (it->second.help.empty() && !help.empty())
        it->second.help = help;
    return it->second;
}

Counter &
Registry::counter(const std::string &name, const Labels &labels,
                  const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    Family &fam = family(name, MetricKind::Counter, help);
    Series &s = fam.series[labelsKey(labels)];
    if (!s.counter) {
        s.labels = labels;
        s.counter = std::make_unique<Counter>();
    }
    return *s.counter;
}

Gauge &
Registry::gauge(const std::string &name, const Labels &labels,
                const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    Family &fam = family(name, MetricKind::Gauge, help);
    Series &s = fam.series[labelsKey(labels)];
    if (!s.gauge) {
        s.labels = labels;
        s.gauge = std::make_unique<Gauge>();
    }
    return *s.gauge;
}

Histogram &
Registry::histogram(const std::string &name, const Labels &labels,
                    std::vector<double> bounds,
                    const std::string &help)
{
    std::lock_guard<std::mutex> lock(mu_);
    Family &fam = family(name, MetricKind::Histogram, help);
    Series &s = fam.series[labelsKey(labels)];
    if (!s.histogram) {
        s.labels = labels;
        if (bounds.empty())
            bounds = defaultLatencyBounds();
        s.histogram = std::make_unique<Histogram>(std::move(bounds));
    }
    return *s.histogram;
}

std::vector<SeriesSnapshot>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SeriesSnapshot> out;
    for (const auto &[name, fam] : families_) {
        for (const auto &[key, s] : fam.series) {
            SeriesSnapshot snap;
            snap.name = name;
            snap.help = fam.help;
            snap.kind = fam.kind;
            snap.labels = s.labels;
            switch (fam.kind) {
              case MetricKind::Counter:
                snap.value = s.counter->value();
                break;
              case MetricKind::Gauge:
                snap.value = s.gauge->value();
                break;
              case MetricKind::Histogram:
                snap.hist = s.histogram->snapshot();
                break;
            }
            out.push_back(std::move(snap));
        }
    }
    return out;
}

std::size_t
Registry::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &[name, fam] : families_)
        n += fam.series.size();
    return n;
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

} // namespace toltiers::obs
