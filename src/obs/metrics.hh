/**
 * @file
 * Thread-safe metrics registry: counters, gauges, and fixed-bucket
 * histograms with quantile estimation.
 *
 * The registry is the live-telemetry counterpart of the offline
 * figure pipeline: the tier service, the cluster simulator, and the
 * rule generator all record into it as they run, and the exporters
 * (obs/export.hh) turn a snapshot into Prometheus text, JSON, or
 * CSV for an operator or a scraper.
 *
 * Concurrency model: metric handles returned by the registry are
 * stable for the registry's lifetime, so hot paths resolve a handle
 * once (LazyHandle, or a pointer taken at construction) and then
 * update it lock-free. Counters are striped across
 * cache-line-padded atomics (writers on different threads touch
 * different lines; value() sums the stripes), gauges are single
 * atomics, and histogram updates are per-bucket atomics — no mutex
 * anywhere on the update path. Histogram snapshots are taken
 * without stopping writers, so a snapshot racing updates may be
 * momentarily inconsistent between count/sum/buckets (each field
 * is individually atomic); totals are exact whenever reads are
 * ordered after writes (e.g. after a thread join). Registration
 * itself takes the registry mutex and is expected off the hot
 * path.
 */

#ifndef TOLTIERS_OBS_METRICS_HH
#define TOLTIERS_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace toltiers::obs {

/** Label set attached to one series, e.g. {{"service", "asr"}}. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Render labels as a stable `k="v",k2="v2"` key (sorted by key). */
std::string labelsKey(const Labels &labels);

/** The three metric kinds the registry supports. */
enum class MetricKind { Counter, Gauge, Histogram };

/** Printable kind name ("counter" / "gauge" / "histogram"). */
const char *metricKindName(MetricKind kind);

/**
 * Monotonically increasing value (events, accumulated seconds).
 *
 * Internally striped: each writing thread lands on one of a few
 * cache-line-padded atomic cells, so heavily shared hot counters
 * (the tier service's tt_* tallies under a concurrent front door)
 * do not serialize on a single contended line. value() sums the
 * stripes; it is exact whenever it is ordered after the writes.
 */
class Counter
{
  public:
    /** Add `delta` (must be >= 0). */
    void
    inc(double delta = 1.0)
    {
        stripes_[stripeIndex()].v.fetch_add(
            delta, std::memory_order_relaxed);
    }

    double
    value() const
    {
        double total = 0.0;
        for (const Stripe &s : stripes_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

  private:
    struct alignas(64) Stripe
    {
        std::atomic<double> v{0.0};
    };
    static constexpr std::size_t kStripes = 8;

    /** The calling thread's stripe (round-robin assigned once). */
    static std::size_t stripeIndex();

    Stripe stripes_[kStripes];
};

/** A value that can go up and down (utilization, queue depth). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time copy of one histogram's state. */
struct HistogramSnapshot
{
    std::vector<double> bounds;        //!< Upper bucket bounds.
    std::vector<std::uint64_t> counts; //!< Per bucket; last = +Inf.
    std::uint64_t count = 0;
    double sum = 0.0;
    double minimum = 0.0; //!< Smallest observed sample.
    double maximum = 0.0; //!< Largest observed sample.

    /**
     * Estimated q-quantile (q in [0, 1]) by linear interpolation
     * within the bucket holding the target rank; the open first and
     * last buckets interpolate against the observed min/max. 0 when
     * empty.
     */
    double quantile(double q) const;
};

/**
 * Fixed-bucket histogram. Bounds are ascending upper bucket edges;
 * an implicit +Inf bucket catches everything above the last bound.
 * Updates are lock-free (per-bucket atomics, CAS'd extremes); see
 * the file comment for snapshot consistency.
 */
class Histogram
{
  public:
    /** @param bounds strictly ascending, non-empty. */
    explicit Histogram(std::vector<double> bounds);

    /** Record one sample. */
    void observe(double x);

    /** Fold another histogram (same bounds) into this one. */
    void merge(const Histogram &other);

    /** Consistent copy of the full state. */
    HistogramSnapshot snapshot() const;

    std::uint64_t count() const { return snapshot().count; }
    double sum() const { return snapshot().sum; }
    double mean() const;

    /** Estimated quantile; see HistogramSnapshot::quantile. */
    double quantile(double q) const { return snapshot().quantile(q); }
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    const std::vector<double> &bounds() const { return bounds_; }

  private:
    std::vector<double> bounds_;
    /** Per-bucket tallies, bounds_.size() + 1 entries. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0}; //!< +Inf until first sample.
    std::atomic<double> max_{0.0}; //!< -Inf until first sample.
};

/** Default latency bucket bounds in seconds (1ms .. 10s, log-ish). */
std::vector<double> defaultLatencyBounds();

/** `count` exponentially spaced bounds from lo to hi inclusive. */
std::vector<double> exponentialBounds(double lo, double hi,
                                      std::size_t count);

/** `count` linearly spaced bounds from lo to hi inclusive. */
std::vector<double> linearBounds(double lo, double hi,
                                 std::size_t count);

/** Point-in-time copy of one series for the exporters. */
struct SeriesSnapshot
{
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::Counter;
    Labels labels;
    double value = 0.0;     //!< Counter/gauge value.
    HistogramSnapshot hist; //!< Populated for histograms.
};

/**
 * Named, labelled metric store. One registry instance can back a
 * whole process (see global()), or tests can build their own.
 *
 * Lifetime rule: series are never removed, and every component
 * attached to a registry (tier service, front door, server, result
 * cache, SLO tracker, tenant governor, version adapters) caches the
 * handles it records into. A registry must therefore outlive every
 * component attached to it.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * The series handle for (name, labels), creating it on first
     * use. Handles stay valid for the registry's lifetime.
     * panic() if `name` is already registered with another kind.
     */
    Counter &counter(const std::string &name,
                     const Labels &labels = {},
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const Labels &labels = {},
                 const std::string &help = "");

    /**
     * Histogram handle. `bounds` is consulted only when the series
     * is first created; later calls may pass {} to reuse it.
     */
    Histogram &histogram(const std::string &name,
                         const Labels &labels = {},
                         std::vector<double> bounds = {},
                         const std::string &help = "");

    /** Consistent copy of every series, sorted by (name, labels). */
    std::vector<SeriesSnapshot> snapshot() const;

    /** Number of registered series. */
    std::size_t seriesCount() const;

    /**
     * The process-wide registry the built-in instrumentation
     * records into.
     */
    static Registry &global();

  private:
    struct Series
    {
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    struct Family
    {
        MetricKind kind = MetricKind::Counter;
        std::string help;
        std::map<std::string, Series> series; //!< By labelsKey.
    };

    Family &family(const std::string &name, MetricKind kind,
                   const std::string &help);

    mutable std::mutex mu_;
    std::map<std::string, Family> families_;
};

/**
 * A component's own striped tally, mirrored into a registry series
 * when one is attached: the component's stats() read the local
 * value, exporters read the registry (which may aggregate several
 * components).
 */
struct MirroredCounter
{
    Counter local;
    Counter *exported = nullptr; //!< Null without a registry.

    void
    inc(double delta = 1.0)
    {
        local.inc(delta);
        if (exported != nullptr)
            exported->inc(delta);
    }

    double value() const { return local.value(); }
};

/**
 * One series handle, resolved on first use and cached. The first
 * get() runs `resolve` (a registry lookup), so the series appears in
 * a snapshot exactly when an uncached lookup would have created it;
 * every later get() is one atomic load. Concurrent first uses may
 * each resolve; the registry hands all of them the same handle.
 */
template <typename Metric>
class LazyHandle
{
  public:
    template <typename Resolve>
    Metric &
    get(Resolve &&resolve) const
    {
        Metric *m = handle_.load(std::memory_order_acquire);
        if (m == nullptr) {
            m = &resolve();
            handle_.store(m, std::memory_order_release);
        }
        return *m;
    }

  private:
    mutable std::atomic<Metric *> handle_{nullptr};
};

/**
 * Process-wide instrumentation switch. When false, the built-in
 * call sites (service adapters, simulator, tier service) skip
 * recording; explicit registry use is unaffected.
 */
void setMetricsEnabled(bool enabled);
bool metricsEnabled();

} // namespace toltiers::obs

#endif // TOLTIERS_OBS_METRICS_HH
