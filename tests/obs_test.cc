/**
 * @file
 * Unit tests for the observability subsystem: histogram bucket and
 * quantile math, metric registry behaviour, exporter round-trips,
 * trace span accounting, the guarantee monitor, the tier service's
 * stage-timing / trace integration, and the exported-series
 * contract of the whole instrumented serving stack (a golden dump
 * plus an 8-thread variant).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "asr/service.hh"
#include "asr/versions.hh"
#include "core/front_door.hh"
#include "core/tier_service.hh"
#include "dataset/speech_corpus.hh"
#include "exec/pool.hh"
#include "obs/export.hh"
#include "obs/guarantee.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "obs/trace.hh"
#include "serving/cache.hh"
#include "serving/fault.hh"
#include "serving/instance.hh"
#include "serving/request.hh"
#include "serving/service_version.hh"
#include "serving/tenant.hh"

namespace ob = toltiers::obs;
namespace tc = toltiers::core;
namespace sv = toltiers::serving;
namespace ex = toltiers::exec;

// -------------------------------------------------------------- histogram

TEST(Histogram, CountsSamplesIntoCorrectBuckets)
{
    ob::Histogram h({1.0, 2.0, 4.0});
    for (double x : {0.5, 1.0, 1.5, 3.0, 10.0})
        h.observe(x);

    auto s = h.snapshot();
    ASSERT_EQ(s.counts.size(), 4u); // 3 bounds + implicit +Inf.
    EXPECT_EQ(s.counts[0], 2u);     // 0.5, 1.0 (le = inclusive).
    EXPECT_EQ(s.counts[1], 1u);     // 1.5.
    EXPECT_EQ(s.counts[2], 1u);     // 3.0.
    EXPECT_EQ(s.counts[3], 1u);     // 10.0 overflows to +Inf.
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.sum, 16.0);
    EXPECT_DOUBLE_EQ(s.minimum, 0.5);
    EXPECT_DOUBLE_EQ(s.maximum, 10.0);
}

TEST(Histogram, QuantilesInterpolateWithinBuckets)
{
    ob::Histogram h({10.0, 20.0, 30.0, 40.0});
    for (int i = 1; i <= 40; ++i)
        h.observe(static_cast<double>(i));

    // Uniform 1..40: quantiles should land close to q * 40.
    EXPECT_NEAR(h.p50(), 20.0, 2.5);
    EXPECT_NEAR(h.p95(), 38.0, 2.5);
    EXPECT_NEAR(h.quantile(0.25), 10.0, 2.5);
    // Extremes clamp to the observed range.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero)
{
    ob::Histogram h({1.0, 2.0});
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, QuantileOfSingleSampleIsThatSample)
{
    ob::Histogram h({1.0});
    h.observe(0.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(h.p50(), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.5);
}

TEST(Histogram, QuantileInterpolatesInsideOverflowBucket)
{
    // Every sample lands beyond the last bound; the open bucket
    // interpolates between the observed extremes, never inventing
    // mass past the maximum.
    ob::Histogram h({1.0});
    h.observe(5.0);
    h.observe(9.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 9.0);
}

TEST(Histogram, QuantileClampsOutOfRangeArguments)
{
    ob::Histogram h({10.0});
    h.observe(2.0);
    h.observe(4.0);
    EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(42.0), h.quantile(1.0));
}

TEST(Histogram, MergeFoldsCountsSumsAndExtremes)
{
    ob::Histogram a({1.0, 2.0, 4.0});
    ob::Histogram b({1.0, 2.0, 4.0});
    a.observe(0.5);
    a.observe(3.0);
    b.observe(1.5);
    b.observe(8.0);

    a.merge(b);
    auto s = a.snapshot();
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.sum, 13.0);
    EXPECT_DOUBLE_EQ(s.minimum, 0.5);
    EXPECT_DOUBLE_EQ(s.maximum, 8.0);
    EXPECT_EQ(s.counts[0], 1u); // 0.5.
    EXPECT_EQ(s.counts[1], 1u); // 1.5.
    EXPECT_EQ(s.counts[2], 1u); // 3.0.
    EXPECT_EQ(s.counts[3], 1u); // 8.0.
}

TEST(Histogram, BoundHelpersAreAscending)
{
    auto exp = ob::exponentialBounds(0.001, 10.0, 9);
    ASSERT_EQ(exp.size(), 9u);
    EXPECT_DOUBLE_EQ(exp.front(), 0.001);
    EXPECT_NEAR(exp.back(), 10.0, 1e-9);
    for (std::size_t i = 1; i < exp.size(); ++i)
        EXPECT_LT(exp[i - 1], exp[i]);

    auto lin = ob::linearBounds(0.0, 1.0, 5);
    ASSERT_EQ(lin.size(), 5u);
    EXPECT_DOUBLE_EQ(lin.front(), 0.0);
    EXPECT_DOUBLE_EQ(lin.back(), 1.0);
    for (std::size_t i = 1; i < lin.size(); ++i)
        EXPECT_LT(lin[i - 1], lin[i]);
}

// --------------------------------------------------------------- registry

TEST(Registry, ReturnsStableHandlesPerNameAndLabels)
{
    ob::Registry reg;
    ob::Counter &a = reg.counter("requests", {{"tier", "0.01"}});
    ob::Counter &b = reg.counter("requests", {{"tier", "0.01"}});
    ob::Counter &c = reg.counter("requests", {{"tier", "0.05"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    a.inc();
    a.inc(2.5);
    EXPECT_DOUBLE_EQ(b.value(), 3.5);
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
    EXPECT_EQ(reg.seriesCount(), 2u);
}

TEST(Registry, GaugeSetAndAdd)
{
    ob::Registry reg;
    ob::Gauge &g = reg.gauge("utilization");
    g.set(0.75);
    g.add(-0.25);
    EXPECT_DOUBLE_EQ(g.value(), 0.5);
}

TEST(Registry, HistogramBoundsFixedAtFirstRegistration)
{
    ob::Registry reg;
    ob::Histogram &h =
        reg.histogram("latency", {}, {0.1, 0.2, 0.4});
    // Later lookups with empty bounds reuse the series.
    ob::Histogram &again = reg.histogram("latency");
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(h.bounds().size(), 3u);
}

TEST(Registry, SnapshotIsSortedAndComplete)
{
    ob::Registry reg;
    reg.counter("b_total", {{"x", "1"}}).inc(2.0);
    reg.gauge("a_gauge").set(7.0);
    reg.histogram("c_hist", {}, {1.0}).observe(0.5);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a_gauge");
    EXPECT_EQ(snap[1].name, "b_total");
    EXPECT_EQ(snap[2].name, "c_hist");
    EXPECT_EQ(snap[0].kind, ob::MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(snap[0].value, 7.0);
    EXPECT_DOUBLE_EQ(snap[1].value, 2.0);
    EXPECT_EQ(snap[2].hist.count, 1u);
}

TEST(Registry, ConcurrentUpdatesAreLossless)
{
    ob::Registry reg;
    constexpr int kThreads = 8;
    constexpr int kIters = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < kIters; ++i) {
                reg.counter("hits", {{"worker", "shared"}}).inc();
                reg.histogram("obs", {}, {0.5, 1.0})
                    .observe(i % 2 == 0 ? 0.25 : 0.75);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_DOUBLE_EQ(
        reg.counter("hits", {{"worker", "shared"}}).value(),
        static_cast<double>(kThreads * kIters));
    EXPECT_EQ(reg.histogram("obs").count(),
              static_cast<std::uint64_t>(kThreads * kIters));
}

TEST(Registry, RuntimeSwitchRoundTrips)
{
    EXPECT_TRUE(ob::metricsEnabled());
    ob::setMetricsEnabled(false);
    EXPECT_FALSE(ob::metricsEnabled());
    ob::setMetricsEnabled(true);
    EXPECT_TRUE(ob::metricsEnabled());
}

// -------------------------------------------------------------- exporters

namespace {

/**
 * Minimal Prometheus text parser: maps "name{labels}" (labels part
 * kept verbatim, empty when absent) to the sample value, skipping
 * comments.
 */
std::map<std::string, double>
parsePrometheus(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto space = line.rfind(' ');
        EXPECT_NE(space, std::string::npos) << line;
        out[line.substr(0, space)] =
            std::stod(line.substr(space + 1));
    }
    return out;
}

} // namespace

TEST(Export, PrometheusTextParsesBackToRegistryState)
{
    ob::Registry reg;
    reg.counter("tt_requests_total", {{"tier", "0.05"}})
        .inc(42.0);
    reg.gauge("tt_utilization").set(0.5);
    ob::Histogram &h =
        reg.histogram("tt_latency_seconds", {}, {0.1, 1.0});
    h.observe(0.05);
    h.observe(0.5);
    h.observe(2.0);

    std::ostringstream os;
    ob::exportPrometheus(reg, os);
    auto samples = parsePrometheus(os.str());

    EXPECT_DOUBLE_EQ(
        samples.at("tt_requests_total{tier=\"0.05\"}"), 42.0);
    EXPECT_DOUBLE_EQ(samples.at("tt_utilization"), 0.5);
    // Cumulative buckets plus the +Inf catch-all.
    EXPECT_DOUBLE_EQ(
        samples.at("tt_latency_seconds_bucket{le=\"0.1\"}"),
        1.0);
    EXPECT_DOUBLE_EQ(
        samples.at("tt_latency_seconds_bucket{le=\"1\"}"),
        2.0);
    EXPECT_DOUBLE_EQ(
        samples.at("tt_latency_seconds_bucket{le=\"+Inf\"}"),
        3.0);
    EXPECT_DOUBLE_EQ(samples.at("tt_latency_seconds_count"),
                     3.0);
    EXPECT_NEAR(samples.at("tt_latency_seconds_sum"), 2.55,
                1e-9);
    // TYPE comments are present for scrapers.
    EXPECT_NE(os.str().find("# TYPE tt_requests_total counter"),
              std::string::npos);
}

TEST(Export, JsonCarriesEverySeries)
{
    ob::Registry reg;
    reg.counter("hits", {{"k", "v"}}).inc(3.0);
    reg.histogram("lat", {}, {1.0}).observe(0.5);

    std::ostringstream os;
    ob::exportJson(reg, os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"hits\""), std::string::npos);
    EXPECT_NE(j.find("\"lat\""), std::string::npos);
    EXPECT_NE(j.find("\"count\""), std::string::npos);
    EXPECT_NE(j.find("\"p99\""), std::string::npos);
}

TEST(Export, CsvHasHeaderAndOneRowPerSeries)
{
    ob::Registry reg;
    reg.counter("a").inc();
    reg.gauge("b").set(1.0);

    std::ostringstream os;
    ob::exportCsv(reg, os);
    std::istringstream is(os.str());
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line.substr(0, 5), "name,");
    std::size_t rows = 0;
    while (std::getline(is, line))
        if (!line.empty())
            ++rows;
    EXPECT_EQ(rows, 2u);
}

TEST(Export, EscapeHelperHandlesEverySpecialCharacter)
{
    EXPECT_EQ(ob::escapePrometheusLabelValue("plain"), "plain");
    EXPECT_EQ(ob::escapePrometheusLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(ob::escapePrometheusLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(ob::escapePrometheusLabelValue("a\nb"), "a\\nb");
    EXPECT_EQ(ob::escapePrometheusLabelValue("\\\"\n"),
              "\\\\\\\"\\n");
}

TEST(Export, PrometheusLabelValuesAreEscaped)
{
    ob::Registry reg;
    reg.counter("tt_weird_total", {{"path", "a\\b"},
                                   {"say", "\"hi\"\nbye"}})
        .inc();
    std::ostringstream os;
    ob::exportPrometheus(reg, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("path=\"a\\\\b\""), std::string::npos);
    EXPECT_NE(text.find("say=\"\\\"hi\\\"\\nbye\""),
              std::string::npos);
    // The raw newline must never reach the exposition line.
    EXPECT_EQ(text.find("\nbye"), std::string::npos);
}

// ------------------------------------------------------------------ trace

TEST(Trace, ModeledSpansNestAndKeepTimeline)
{
    ob::Tracer tracer;
    ob::Trace t = tracer.startTrace();
    std::uint64_t root = t.addSpan("request", 0.0, 0.9);
    std::uint64_t s1 = t.addSpan("stage:v1", 0.0, 0.3, root);
    std::uint64_t s2 = t.addSpan("stage:v7", 0.3, 0.6, root);
    t.annotate(s2, "escalation", "true");
    tracer.finish(std::move(t));

    ASSERT_EQ(tracer.traceCount(), 1u);
    auto records = tracer.drain();
    EXPECT_EQ(tracer.traceCount(), 0u);
    ASSERT_EQ(records.size(), 1u);
    const ob::TraceRecord &rec = records[0];
    ASSERT_EQ(rec.spans.size(), 3u);
    EXPECT_DOUBLE_EQ(rec.rootDuration(), 0.9);

    // Children reference the root and abut on the timeline.
    EXPECT_EQ(rec.spans[1].parent, root);
    EXPECT_EQ(rec.spans[2].parent, root);
    EXPECT_NE(s1, s2);
    EXPECT_DOUBLE_EQ(rec.spans[1].start + rec.spans[1].duration,
                     rec.spans[2].start);
    EXPECT_DOUBLE_EQ(
        rec.spans[1].duration + rec.spans[2].duration, 0.9);
    ASSERT_EQ(rec.spans[2].attrs.size(), 1u);
    EXPECT_EQ(rec.spans[2].attrs[0].first, "escalation");
}

TEST(Trace, ScopedSpanMeasuresWallClock)
{
    ob::Tracer tracer;
    ob::Trace t = tracer.startTrace();
    {
        ob::ScopedSpan outer(t, "outer");
        ob::ScopedSpan inner(t, "inner", outer.id());
        volatile double sink = 0.0;
        for (int i = 0; i < 10000; ++i)
            sink = sink + 1.0;
        inner.close();
        inner.close(); // Idempotent.
    }
    tracer.finish(std::move(t));

    auto records = tracer.drain();
    ASSERT_EQ(records.size(), 1u);
    const auto &spans = records[0].spans;
    ASSERT_EQ(spans.size(), 2u);
    // Spans are recorded in opening order: outer first.
    const ob::SpanRecord &outer = spans[0];
    const ob::SpanRecord &inner = spans[1];
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_GE(inner.duration, 0.0);
    EXPECT_GE(outer.duration, inner.duration);
    EXPECT_GE(inner.start, outer.start);
}

TEST(Trace, TracerAssignsFreshIdsAndExportsJsonl)
{
    ob::Tracer tracer;
    ob::Trace a = tracer.startTrace();
    ob::Trace b = tracer.startTrace();
    EXPECT_NE(a.traceId(), b.traceId());
    a.addSpan("request", 0.0, 1.0);
    b.addSpan("request", 0.0, 2.0);
    tracer.finish(std::move(a));
    tracer.finish(std::move(b));

    std::ostringstream os;
    tracer.exportJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"traceId\""), std::string::npos);
        EXPECT_NE(line.find("\"spans\""), std::string::npos);
    }
    EXPECT_EQ(lines, 2u);
    // exportJsonl does not drain.
    EXPECT_EQ(tracer.traceCount(), 2u);
}

// -------------------------------------------------------------- guarantee

namespace {

ob::TierGuarantee
guarantee(double tolerance, double worst_latency = 0.0,
          ob::DegradationKind kind = ob::DegradationKind::Relative)
{
    ob::TierGuarantee g;
    g.objective = "response-time";
    g.tolerance = tolerance;
    g.worstLatency = worst_latency;
    g.kind = kind;
    return g;
}

} // namespace

TEST(GuaranteeMonitor, FiresOnInjectedErrorViolation)
{
    ob::GuaranteeMonitor mon;
    mon.installTier(guarantee(0.05));
    // Degradation (0.2 - 0.1) / 0.1 = 100% >> 5%.
    for (int i = 0; i < 40; ++i)
        mon.observeError("response-time", 0.05, 0.2, 0.1);

    EXPECT_EQ(mon.violationCount(), 1u);
    auto statuses = mon.statuses();
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_TRUE(statuses[0].errorViolation);
    EXPECT_FALSE(statuses[0].latencyViolation);
    EXPECT_NEAR(statuses[0].degradation, 1.0, 1e-9);
    EXPECT_NE(mon.report().find("VIOLATED"), std::string::npos);
}

TEST(GuaranteeMonitor, StaysQuietBelowMinSamples)
{
    ob::GuaranteeMonitor mon;
    mon.installTier(guarantee(0.05));
    for (int i = 0; i < 10; ++i) // < minSamples (30).
        mon.observeError("response-time", 0.05, 0.2, 0.1);
    EXPECT_EQ(mon.violationCount(), 0u);
}

TEST(GuaranteeMonitor, StaysQuietWithinTolerance)
{
    ob::GuaranteeMonitor mon;
    mon.installTier(guarantee(0.05));
    // Degradation (0.103 - 0.1) / 0.1 = 3% < 5%.
    for (int i = 0; i < 100; ++i)
        mon.observeError("response-time", 0.05, 0.103, 0.1);
    EXPECT_EQ(mon.violationCount(), 0u);
    auto statuses = mon.statuses();
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_NEAR(statuses[0].degradation, 0.03, 1e-9);
}

TEST(GuaranteeMonitor, FiresOnLatencyBeyondWorstCaseWithSlack)
{
    ob::GuaranteeMonitor mon;
    mon.installTier(guarantee(0.05, /*worst_latency=*/0.1));
    // 0.2 > 0.1 * 1.5 slack.
    for (int i = 0; i < 40; ++i)
        mon.observeLatency("response-time", 0.05, 0.2);
    auto statuses = mon.statuses();
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_TRUE(statuses[0].latencyViolation);
    EXPECT_FALSE(statuses[0].errorViolation);

    // Under the slack multiplier there is no violation.
    ob::GuaranteeMonitor ok;
    ok.installTier(guarantee(0.05, 0.1));
    for (int i = 0; i < 40; ++i)
        ok.observeLatency("response-time", 0.05, 0.12);
    EXPECT_EQ(ok.violationCount(), 0u);
}

TEST(GuaranteeMonitor, AbsolutePointsKindComparesDifferences)
{
    ob::GuaranteeMonitor mon;
    mon.installTier(guarantee(0.02, 0.0,
                              ob::DegradationKind::AbsolutePoints));
    // err - ref = 0.05 points > 0.02 tolerance.
    for (int i = 0; i < 40; ++i)
        mon.observeError("response-time", 0.02, 0.15, 0.10);
    EXPECT_EQ(mon.violationCount(), 1u);
}

TEST(GuaranteeMonitor, UninstalledTiersAreTrackedButNeverFlagged)
{
    ob::GuaranteeMonitor mon;
    for (int i = 0; i < 100; ++i)
        mon.observeError("cost", 0.01, 0.9, 0.1);
    EXPECT_EQ(mon.violationCount(), 0u);
    ASSERT_EQ(mon.statuses().size(), 1u);
    EXPECT_EQ(mon.statuses()[0].errorSamples, 100u);
}

TEST(GuaranteeMonitor, PublishesStatusGauges)
{
    ob::GuaranteeMonitor mon;
    mon.installTier(guarantee(0.05));
    for (int i = 0; i < 40; ++i)
        mon.observeError("response-time", 0.05, 0.2, 0.1);

    ob::Registry reg;
    mon.updateMetrics(reg);
    ob::Labels labels = {{"objective", "response-time"},
                         {"tier", "0.05"}};
    EXPECT_DOUBLE_EQ(
        reg.gauge("tt_guarantee_violation", labels).value(),
        1.0);
    EXPECT_DOUBLE_EQ(
        reg.gauge("tt_guarantee_tolerance", labels).value(),
        0.05);
    EXPECT_NEAR(
        reg.gauge("tt_guarantee_degradation", labels).value(),
        1.0, 1e-9);
}

// ------------------------------------------------------- slo burn rate

namespace {

ob::SloPolicy
testSloPolicy()
{
    ob::SloPolicy p;
    p.target = 0.9; // error budget 0.1
    p.fastWindowEvents = 10;
    p.slowWindowEvents = 40;
    p.minEvents = 10;
    return p;
}

} // namespace

TEST(Slo, BurnRateIsBadFractionOverBudget)
{
    ob::SloTracker slo(testSloPolicy());
    for (int i = 0; i < 8; ++i)
        slo.record("response-time", 0.05, true);
    for (int i = 0; i < 2; ++i)
        slo.record("response-time", 0.05, false);

    auto st = slo.status("response-time", 0.05);
    EXPECT_EQ(st.events, 10u);
    EXPECT_EQ(st.bad, 2u);
    // Both windows hold the same 10 events: 20% bad against a 10%
    // budget burns at 2x sustainable.
    EXPECT_DOUBLE_EQ(st.fastBurnRate, 2.0);
    EXPECT_DOUBLE_EQ(st.slowBurnRate, 2.0);
    EXPECT_DOUBLE_EQ(st.budgetRemaining, -1.0); // overdrawn
    EXPECT_EQ(st.alert, ob::SloAlert::None);    // below ticket rate
}

TEST(Slo, PageNeedsBothWindowsAboveThePageRate)
{
    // All-bad traffic burns at 1/0.1 = 10x in both windows: past
    // the 6x ticket rate, short of the 14.4x page rate.
    ob::SloTracker slo(testSloPolicy());
    for (int i = 0; i < 10; ++i)
        slo.record("response-time", 0.05, false);
    EXPECT_EQ(slo.status("response-time", 0.05).alert,
              ob::SloAlert::Ticket);

    // Dropping the page rate under 10x pages the same traffic.
    ob::SloPolicy hair = testSloPolicy();
    hair.pageBurnRate = 9.0;
    ob::SloTracker pager(hair);
    for (int i = 0; i < 10; ++i)
        pager.record("response-time", 0.05, false);
    EXPECT_EQ(pager.status("response-time", 0.05).alert,
              ob::SloAlert::Page);
    EXPECT_EQ(pager.alertCount(), 1u);

    // A long good history cools the slow window below the page
    // rate; a fresh bad burst alone must not page (fast window is
    // hot, slow window is not).
    ob::SloTracker burst(hair);
    for (int i = 0; i < 40; ++i)
        burst.record("response-time", 0.05, true);
    for (int i = 0; i < 10; ++i)
        burst.record("response-time", 0.05, false);
    auto st = burst.status("response-time", 0.05);
    EXPECT_DOUBLE_EQ(st.fastBurnRate, 10.0);
    EXPECT_LT(st.slowBurnRate, 9.0);
    EXPECT_NE(st.alert, ob::SloAlert::Page);
}

TEST(Slo, ColdTierNeverAlerts)
{
    ob::SloTracker slo(testSloPolicy()); // minEvents = 10
    for (int i = 0; i < 9; ++i)
        slo.record("response-time", 0.05, false);
    EXPECT_EQ(slo.status("response-time", 0.05).alert,
              ob::SloAlert::None);
    slo.record("response-time", 0.05, false);
    EXPECT_NE(slo.status("response-time", 0.05).alert,
              ob::SloAlert::None);
}

TEST(Slo, ReinstalledPolicyResizesWindowsKeepingNewestEvents)
{
    // Shrinking a window keeps its newest events; growing one keeps
    // them all and fills up from there.
    ob::SloTracker slo(testSloPolicy()); // budget 0.1, fast window 10
    for (bool good : {false, true, true, false})
        slo.record("cost", 0.05, good);
    ob::SloPolicy narrow = testSloPolicy();
    narrow.fastWindowEvents = 2;
    slo.installTier("cost", 0.05, narrow);
    slo.record("cost", 0.05, true); // fast window: bad, good
    EXPECT_NEAR(slo.status("cost", 0.05).fastBurnRate, 5.0, 1e-9);
    slo.record("cost", 0.05, true); // fast window: good, good
    EXPECT_NEAR(slo.status("cost", 0.05).fastBurnRate, 0.0, 1e-9);

    ob::SloPolicy wide = testSloPolicy();
    wide.fastWindowEvents = 4;
    slo.installTier("cost", 0.05, wide);
    slo.record("cost", 0.05, false); // fast window: good, good, bad
    auto st = slo.status("cost", 0.05);
    EXPECT_NEAR(st.fastBurnRate, (1.0 / 3.0) / 0.1, 1e-9);
    // The slow window (40 events) never filled: 3 bad of 7.
    EXPECT_NEAR(st.slowBurnRate, (3.0 / 7.0) / 0.1, 1e-9);
    EXPECT_EQ(st.events, 7u);
    EXPECT_EQ(st.bad, 3u);
}

TEST(Slo, RecordingAutoInstallsAndExportsSeries)
{
    ob::Registry reg;
    ob::SloTracker slo(testSloPolicy());
    slo.attachMetrics(&reg);
    slo.installTier("cost", 0.1); // idle tier still exports zeros
    for (int i = 0; i < 4; ++i)
        slo.record("response-time", 0.05, i != 0);

    ob::Labels rt = {{"objective", "response-time"},
                     {"tier", "0.05"}};
    EXPECT_DOUBLE_EQ(reg.gauge("tt_slo_events_total", rt).value(),
                     4.0);
    EXPECT_DOUBLE_EQ(reg.gauge("tt_slo_bad_total", rt).value(),
                     1.0);
    EXPECT_DOUBLE_EQ(
        reg.gauge("tt_slo_burn_rate_fast", rt).value(), 2.5);
    EXPECT_DOUBLE_EQ(
        reg.gauge("tt_slo_alert_level", rt).value(), 0.0);

    ob::Labels cost = {{"objective", "cost"}, {"tier", "0.1"}};
    EXPECT_DOUBLE_EQ(
        reg.gauge("tt_slo_events_total", cost).value(), 0.0);
    EXPECT_DOUBLE_EQ(
        reg.gauge("tt_slo_budget_remaining", cost).value(), 1.0);

    ASSERT_EQ(slo.statuses().size(), 2u);
    EXPECT_EQ(std::string(ob::sloAlertName(ob::SloAlert::Page)),
              "page");
}

// ----------------------------------------------- tier service integration

namespace {

/** Deterministic fake version: fixed latency/cost/confidence. */
class FakeVersion : public sv::ServiceVersion
{
  public:
    FakeVersion(std::string name, double latency, double cost,
                double confidence)
        : name_(std::move(name)), instance_("fake"),
          latency_(latency), cost_(cost), confidence_(confidence)
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &instanceName() const override
    {
        return instance_;
    }
    std::size_t workloadSize() const override { return 100; }

    sv::VersionResult
    process(std::size_t index) const override
    {
        sv::VersionResult r;
        r.output = name_ + ":" + std::to_string(index);
        r.confidence = confidence_;
        r.latencySeconds = latency_;
        r.costDollars = cost_;
        return r;
    }

  private:
    std::string name_;
    std::string instance_;
    double latency_;
    double cost_;
    double confidence_;
};

} // namespace

TEST(TierServiceObs, SequentialEscalationStagesSumToLatency)
{
    // Fast version's confidence (0.4) is below the threshold, so
    // every request escalates: total latency = 0.1 + 0.5.
    FakeVersion fast("fast", 0.1, 0.001, 0.4);
    FakeVersion accurate("accurate", 0.5, 0.01, 0.99);
    tc::TierService service({&fast, &accurate});

    tc::RoutingRule rule;
    rule.tolerance = 0.05;
    rule.cfg.kind = tc::PolicyKind::Sequential;
    rule.cfg.primary = 0;
    rule.cfg.secondary = 1;
    rule.cfg.confidenceThreshold = 0.8;
    service.setRules(sv::Objective::ResponseTime, {rule});

    ob::Registry reg;
    ob::Tracer tracer;
    ob::GuaranteeMonitor monitor;
    service.attachObservability({&reg, &tracer, &monitor});

    sv::ServiceRequest req;
    req.payload = 3;
    req.tier.tolerance = 0.05;
    req.tier.objective = sv::Objective::ResponseTime;
    auto resp = service.handle(req);

    EXPECT_TRUE(resp.escalated);
    EXPECT_NE(resp.traceId, 0u);
    ASSERT_EQ(resp.stages.size(), 2u);
    EXPECT_EQ(resp.stages[0].versionName, "fast");
    EXPECT_EQ(resp.stages[1].versionName, "accurate");
    EXPECT_DOUBLE_EQ(resp.stages[0].startSeconds, 0.0);
    EXPECT_DOUBLE_EQ(resp.stages[1].startSeconds, 0.1);
    EXPECT_DOUBLE_EQ(resp.stages[0].latencySeconds +
                         resp.stages[1].latencySeconds,
                     resp.latencySeconds);

    // The trace mirrors the stage breakdown. The root span covers
    // the wall-clock control plane (rule match) plus the modeled
    // response latency, so it is slightly above latencySeconds.
    auto records = tracer.drain();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].traceId, resp.traceId);
    EXPECT_GE(records[0].rootDuration(), resp.latencySeconds);
    EXPECT_NEAR(records[0].rootDuration(), resp.latencySeconds,
                0.05);
    double staged = 0.0;
    for (const auto &span : records[0].spans)
        if (span.name.rfind("stage:", 0) == 0)
            staged += span.duration;
    EXPECT_DOUBLE_EQ(staged, resp.latencySeconds);

    // Metrics recorded under the matched tier's labels.
    ob::Labels labels = {{"objective", "response-time"},
                         {"tier", "0.05"}};
    EXPECT_DOUBLE_EQ(
        reg.counter("tt_tier_requests_total", labels).value(),
        1.0);
    EXPECT_DOUBLE_EQ(
        reg.counter("tt_tier_escalations_total", labels)
            .value(),
        1.0);
    EXPECT_EQ(
        reg.histogram("tt_tier_latency_seconds", labels)
            .count(),
        1u);

    // The monitor saw the latency for this tier.
    auto statuses = monitor.statuses();
    bool found = false;
    for (const auto &st : statuses) {
        if (st.guarantee.tolerance == 0.05 &&
            st.latencySamples == 1) {
            found = true;
            EXPECT_DOUBLE_EQ(st.meanLatency, resp.latencySeconds);
        }
    }
    EXPECT_TRUE(found);
}

TEST(TierServiceObs, CancelledRaceLoserIsMarkedInStages)
{
    // Primary is confident, so the concurrent-ET race kills the
    // secondary at the primary's completion time.
    FakeVersion fast("fast", 0.1, 0.001, 0.95);
    FakeVersion accurate("accurate", 0.5, 0.01, 0.99);
    tc::TierService service({&fast, &accurate});

    tc::RoutingRule rule;
    rule.tolerance = 0.10;
    rule.cfg.kind = tc::PolicyKind::ConcurrentEt;
    rule.cfg.primary = 0;
    rule.cfg.secondary = 1;
    rule.cfg.confidenceThreshold = 0.8;
    service.setRules(sv::Objective::ResponseTime, {rule});

    sv::ServiceRequest req;
    req.tier.tolerance = 0.10;
    auto resp = service.handle(req);

    EXPECT_FALSE(resp.escalated);
    ASSERT_EQ(resp.stages.size(), 2u);
    EXPECT_FALSE(resp.stages[0].cancelled);
    EXPECT_TRUE(resp.stages[1].cancelled);
    // Both raced stages start at the arrival instant; the loser's
    // recorded busy time is the kill time.
    EXPECT_DOUBLE_EQ(resp.stages[1].startSeconds, 0.0);
    EXPECT_DOUBLE_EQ(resp.stages[1].latencySeconds, 0.1);
}

// ------------------------------------------- exported series contract
//
// The serving path resolves each registry handle once and caches it;
// that must be invisible in the export. A scripted request sequence
// through the weighted-fair front door and the fully instrumented
// service is dumped series by series — name, labels, kind, value (or
// histogram count, plus the sum for modeled-clock histograms) and the
// request after which the series first appeared — and compared with a
// committed golden (regenerate with TT_UPDATE_GOLDEN=1 ./obs_test).
// The 8-thread variant races first-sight tenants and a first-call
// version adapter against that lazy resolution; totals must be exact.

namespace {

/** The fault harness's dead backend: every attempt errors. */
sv::FaultSchedule
deadBackend()
{
    sv::FaultSpec spec;
    spec.failureRate = 1.0;
    return sv::FaultSchedule(spec);
}

tc::RoutingRule
seriesRule(double tolerance, tc::PolicyKind kind, std::size_t primary,
           std::size_t secondary)
{
    tc::RoutingRule r;
    r.tolerance = tolerance;
    r.cfg.kind = kind;
    r.cfg.primary = primary;
    r.cfg.secondary = secondary;
    r.cfg.confidenceThreshold = 0.8;
    return r;
}

/** One scripted front-door submission. */
struct Scripted
{
    std::string tenant;
    sv::Objective objective = sv::Objective::ResponseTime;
    double tolerance = 0.0;
    std::size_t payload = 0;
};

/**
 * Every component that records into a registry, wired as deployed:
 * a ladder of fake versions (one behind the fault harness, failing
 * every attempt), rules for both objectives, retries and hedging, a
 * result cache, the guarantee monitor, the SLO tracker and a
 * weighted-fair front door. An optional `extra` version leads the
 * ladder and serves a cost tier of its own (tolerance 0.04).
 */
struct SeriesStack
{
    explicit SeriesStack(std::size_t pool_threads,
                         const sv::ServiceVersion *extra = nullptr)
        : cache(cacheConfig(&registry)),
          service(ladder(extra)), pool(pool_threads)
    {
        const std::size_t b = extra != nullptr ? 1 : 0;
        using K = tc::PolicyKind;
        service.setRules(
            sv::Objective::ResponseTime,
            {seriesRule(0.05, K::Sequential, b + 0, b + 3),
             seriesRule(0.08, K::Sequential, b + 1, b + 3),
             seriesRule(0.10, K::Single, b + 2, b + 2)});
        std::vector<tc::RoutingRule> cost = {
            seriesRule(0.02, K::Single, b + 0, b + 0)};
        if (extra != nullptr)
            cost.push_back(seriesRule(0.04, K::Single, 0, 0));
        service.setRules(sv::Objective::Cost, cost);
        service.setVersionProfiles({{b + 0, 0.02, 0.125, 0.001},
                                    {b + 1, 0.04, 0.0625, 0.0005},
                                    {b + 2, 0.01, 0.03125, 0.0002},
                                    {b + 3, 0.0, 0.5, 0.01}});
        tc::ResiliencePolicy resilience;
        resilience.maxRetries = 1;
        resilience.hedgeDelaySeconds = 0.3; // Hedges `accurate`.
        service.setResilience(resilience);
        service.setCache(&cache);
        slo.attachMetrics(&registry);
        service.attachObservability(
            {&registry, nullptr, &monitor, &slo});

        tc::FrontDoorConfig cfg;
        cfg.pool = &pool;
        cfg.metrics = &registry;
        cfg.tenantPolicy = &policy;
        door = std::make_unique<tc::TierFrontDoor>(service, cfg);
    }

    static sv::CacheConfig
    cacheConfig(ob::Registry *metrics)
    {
        sv::CacheConfig cfg;
        cfg.metrics = metrics;
        return cfg;
    }

    std::vector<const sv::ServiceVersion *>
    ladder(const sv::ServiceVersion *extra) const
    {
        std::vector<const sv::ServiceVersion *> out;
        if (extra != nullptr)
            out.push_back(extra);
        for (const sv::ServiceVersion *v :
             {static_cast<const sv::ServiceVersion *>(&fast),
              static_cast<const sv::ServiceVersion *>(&unsure),
              static_cast<const sv::ServiceVersion *>(&flaky),
              static_cast<const sv::ServiceVersion *>(&accurate)})
            out.push_back(v);
        return out;
    }

    static sv::ServiceRequest
    request(const Scripted &s)
    {
        sv::ServiceRequest req;
        req.payload = s.payload;
        req.tenant = s.tenant;
        req.tier.objective = s.objective;
        req.tier.tolerance = s.tolerance;
        return req;
    }

    tc::TierResponse
    submit(const Scripted &s)
    {
        auto ticket = door->submit(request(s));
        EXPECT_NE(ticket, tc::TierFrontDoor::kRejected);
        return door->wait(ticket);
    }

    FakeVersion fast{"fast", 0.125, 0.001, 0.9};
    FakeVersion unsure{"unsure", 0.0625, 0.0005, 0.4};
    FakeVersion flakyBackend{"flaky", 0.03125, 0.0002, 0.9};
    sv::FaultyServiceVersion flaky{flakyBackend, deadBackend()};
    FakeVersion accurate{"accurate", 0.5, 0.01, 0.99};
    ob::Registry registry;
    ob::GuaranteeMonitor monitor;
    ob::SloTracker slo;
    sv::ResultCache cache;
    tc::TierService service;
    sv::TenantPolicy policy;
    ex::ThreadPool pool;
    std::unique_ptr<tc::TierFrontDoor> door;
};

/** Histograms on the modeled clock: their sums are deterministic. */
bool
modeledHistogram(const ob::SeriesSnapshot &s)
{
    if (s.name == "tt_tier_latency_seconds" ||
        s.name == "tt_tier_cost_dollars")
        return true;
    if (s.name != "tt_stage_seconds")
        return false;
    for (const auto &[key, value] : s.labels) {
        if (key == "stage")
            return value == "execute" || value == "retry-backoff" ||
                   value == "hedge-overlap";
    }
    return false;
}

std::string
seriesKey(const ob::SeriesSnapshot &s)
{
    return s.name + "{" + ob::labelsKey(s.labels) + "} " +
           ob::metricKindName(s.kind);
}

/** `name{labels} kind value`: the counter/gauge value, or a
 * histogram's count (and sum when on the modeled clock). */
std::string
seriesLine(const ob::SeriesSnapshot &s)
{
    char buf[96];
    if (s.kind != ob::MetricKind::Histogram) {
        std::snprintf(buf, sizeof(buf), " %.17g", s.value);
    } else if (modeledHistogram(s)) {
        std::snprintf(buf, sizeof(buf), " count=%llu sum=%.17g",
                      static_cast<unsigned long long>(s.hist.count),
                      s.hist.sum);
    } else {
        std::snprintf(buf, sizeof(buf), " count=%llu",
                      static_cast<unsigned long long>(s.hist.count));
    }
    return seriesKey(s) + buf;
}

/** The golden script: hits and misses, one escalation (to the
 * hedged reference version), one dead-backend fallback, two named
 * tenants plus the anonymous one, both objectives, and the
 * implicit reference tiers. */
const std::vector<Scripted> &
goldenScript()
{
    using O = sv::Objective;
    static const std::vector<Scripted> script = {
        {"alpha", O::ResponseTime, 0.05, 2}, // miss, confident
        {"alpha", O::ResponseTime, 0.05, 2}, // hit
        {"beta", O::ResponseTime, 0.08, 3},  // miss, escalates
        {"beta", O::ResponseTime, 0.09, 3},  // hit, 0.08 bucket
        {"", O::Cost, 0.02, 4},              // miss, anonymous
        {"alpha", O::Cost, 0.03, 4},         // hit across tenants
        {"beta", O::ResponseTime, 0.10, 5},  // retried, falls back
        {"alpha", O::ResponseTime, 0.0, 6},  // reference tier miss
        {"alpha", O::ResponseTime, 0.0, 6},  // reference tier hit
        {"", O::Cost, 0.0, 7},               // cost reference tier
        {"alpha", O::ResponseTime, 0.05, 8}, // miss
        {"beta", O::ResponseTime, 0.05, 2},  // hit across tenants
    };
    return script;
}

} // namespace

TEST(SeriesContract, ScriptedSequenceMatchesGolden)
{
    SeriesStack stack(0); // Worker-less: the door serves inline.

    // Series identity -> (line, step after which it first showed).
    std::map<std::string, std::pair<std::string, std::size_t>> seen;
    auto observe = [&](std::size_t step) {
        for (const ob::SeriesSnapshot &s : stack.registry.snapshot()) {
            auto [it, fresh] =
                seen.try_emplace(seriesKey(s), seriesLine(s), step);
            if (!fresh)
                it->second.first = seriesLine(s);
        }
    };
    observe(0);
    std::size_t step = 0;
    for (const Scripted &s : goldenScript()) {
        (void)stack.submit(s);
        observe(++step);
    }

    auto stats = stack.door->stats();
    EXPECT_EQ(stats.fellBack, 1u);
    EXPECT_EQ(stack.cache.stats().hits, 5u);

    std::string dump;
    for (const auto &[key, entry] : seen) {
        dump += entry.first + " first=" +
                std::to_string(entry.second) + "\n";
    }

    const std::string path =
        std::string(TT_GOLDEN_DIR) + "/telemetry_series.txt";
    if (std::getenv("TT_UPDATE_GOLDEN") != nullptr) {
        std::ofstream(path) << dump;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " — regenerate with TT_UPDATE_GOLDEN=1 ./obs_test";
    std::stringstream golden;
    golden << in.rdbuf();

    std::istringstream want(golden.str());
    std::istringstream got(dump);
    std::string w, g;
    std::size_t line = 0;
    while (true) {
        bool more_w = static_cast<bool>(std::getline(want, w));
        bool more_g = static_cast<bool>(std::getline(got, g));
        ++line;
        if (!more_w && !more_g)
            break;
        ASSERT_EQ(more_w ? w : "<end>", more_g ? g : "<end>")
            << "first difference at line " << line;
    }
}

TEST(SeriesContract, EightThreadFirstSightTotalsAreExact)
{
    // A real version adapter, so its lazily resolved
    // tt_inference_wall_seconds handle races too. Each stack gets a
    // fresh adapter (unresolved handle) over the same engine.
    toltiers::asr::AsrWorld world;
    toltiers::dataset::SpeechCorpusConfig corpus_cfg;
    corpus_cfg.utterances = 100; // The fake versions' workload size.
    auto corpus = toltiers::dataset::buildSpeechCorpus(world, corpus_cfg);
    toltiers::asr::AsrEngine engine(world,
                                    toltiers::asr::paretoVersions()[0]);
    sv::InstanceCatalog catalog;
    const ob::Labels adapter_labels = {{"service", "asr"},
                                       {"version", engine.name()}};
    auto adapterCalls = [&] {
        for (const auto &s : ob::Registry::global().snapshot()) {
            if (s.name == "tt_inference_wall_seconds" &&
                ob::labelsKey(s.labels) ==
                    ob::labelsKey(adapter_labels))
                return s.hist.count;
        }
        return std::uint64_t{0};
    };

    // Thread t owns payloads 10t+1..10t+6 (so its hits and misses do
    // not depend on the interleaving) and shares tenant t%4 with one
    // other thread, so every tenant is first seen by two racers.
    constexpr std::size_t kThreads = 8;
    auto script = [](std::size_t t) {
        using O = sv::Objective;
        std::string tenant = "tenant-" + std::to_string(t % 4);
        std::size_t p = 10 * t;
        std::vector<Scripted> out;
        for (int round = 0; round < 2; ++round) {
            out.push_back({tenant, O::ResponseTime, 0.05, p + 1});
            out.push_back({tenant, O::ResponseTime, 0.08, p + 2});
            out.push_back({tenant, O::Cost, 0.04, p + 3});
            out.push_back({tenant, O::ResponseTime, 0.10, p + 4});
            out.push_back({tenant, O::ResponseTime, 0.0, p + 5});
            out.push_back({tenant, O::Cost, 0.02, p + 6});
        }
        return out;
    };

    toltiers::asr::AsrServiceVersion serial_adapter(
        engine, corpus, catalog.get("cpu-small"));
    SeriesStack serial(0, &serial_adapter);
    std::uint64_t calls_before = adapterCalls();
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (const Scripted &s : script(t))
            (void)serial.submit(s);
    }
    std::uint64_t serial_calls = adapterCalls() - calls_before;

    toltiers::asr::AsrServiceVersion racing_adapter(
        engine, corpus, catalog.get("cpu-small"));
    SeriesStack racing(4, &racing_adapter);
    calls_before = adapterCalls();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (const Scripted &s : script(t))
                (void)racing.submit(s);
        });
    }
    for (auto &th : threads)
        th.join();
    racing.door->drain();
    EXPECT_EQ(adapterCalls() - calls_before, serial_calls);
#if TOLTIERS_OBS_ENABLED
    EXPECT_GT(serial_calls, 0u); // Adapters record only when built in.
#endif

    auto serial_series = serial.registry.snapshot();
    auto racing_series = racing.registry.snapshot();
    ASSERT_EQ(serial_series.size(), racing_series.size());
    for (std::size_t i = 0; i < serial_series.size(); ++i) {
        const ob::SeriesSnapshot &want = serial_series[i];
        const ob::SeriesSnapshot &got = racing_series[i];
        ASSERT_EQ(seriesKey(want), seriesKey(got));
        // The resident-size gauges publish a snapshot per insert, so
        // under concurrency the last writer may lag the cache; the
        // cache's own accounting is compared below instead.
        if (want.name == "tt_cache_bytes" ||
            want.name == "tt_cache_entries")
            continue;
        if (want.kind != ob::MetricKind::Histogram) {
            EXPECT_EQ(want.value, got.value) << seriesKey(want);
            continue;
        }
        EXPECT_EQ(want.hist.count, got.hist.count) << seriesKey(want);
        if (modeledHistogram(want)) {
            EXPECT_NEAR(want.hist.sum, got.hist.sum,
                        1e-9 * std::max(1.0, want.hist.sum))
                << seriesKey(want);
        }
    }
    auto serial_cache = serial.cache.stats();
    auto racing_cache = racing.cache.stats();
    EXPECT_EQ(serial_cache.hits, racing_cache.hits);
    EXPECT_EQ(serial_cache.misses, racing_cache.misses);
    EXPECT_EQ(serial_cache.entries, racing_cache.entries);
    EXPECT_EQ(serial_cache.bytes, racing_cache.bytes);
}
