/**
 * @file
 * Fault-tolerance test harness (ctest label: faults).
 *
 * Exercises the whole failure path deterministically: the seeded
 * fault injector, the deadline/retry/hedge stage executor, the tier
 * service's graceful degradation and explicit violation reporting,
 * the fault-path telemetry (tt_* counters, spans, guarantee
 * monitor), and the cluster simulator under injected chaos. The
 * acceptance test runs a 10-fold cross-validated chaos replay with
 * 10% failures and 5% timeouts and checks the issue's contract:
 * zero tolerance-guarantee violations wherever a satisfying
 * fallback exists, explicit (never crashing) reports elsewhere, and
 * bit-for-bit reproducibility from the seed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/resilience.hh"
#include "core/rule_generator.hh"
#include "core/tier_service.hh"
#include "obs/obs.hh"
#include "serving/cluster.hh"
#include "serving/fault.hh"

namespace co = toltiers::core;
namespace sv = toltiers::serving;
namespace ob = toltiers::obs;

namespace {

constexpr std::size_t kWorkload = 64;

/** Reliable constant-profile version with per-payload output. */
class StubVersion : public sv::ServiceVersion
{
  public:
    StubVersion(std::string name, double latency, double cost,
                double confidence = 0.9,
                std::size_t workload = kWorkload)
        : name_(std::move(name)), instance_("cpu-small"),
          latency_(latency), cost_(cost), confidence_(confidence),
          workload_(workload)
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &instanceName() const override
    {
        return instance_;
    }
    std::size_t workloadSize() const override { return workload_; }

    sv::VersionResult
    process(std::size_t index) const override
    {
        sv::VersionResult r;
        r.output = name_ + "-answer-" + std::to_string(index);
        r.confidence = confidence_;
        r.latencySeconds = latency_;
        r.costDollars = cost_;
        r.error = 0.0;
        return r;
    }

  private:
    std::string name_;
    std::string instance_;
    double latency_;
    double cost_;
    double confidence_;
    std::size_t workload_;
};

sv::FaultSpec
mix(double failure, double timeout, double slowdown,
    double corrupt, std::uint64_t seed)
{
    sv::FaultSpec spec;
    spec.failureRate = failure;
    spec.timeoutRate = timeout;
    spec.slowdownRate = slowdown;
    spec.corruptRate = corrupt;
    spec.seed = seed;
    return spec;
}

co::RoutingRule
singleRule(double tolerance, std::size_t version)
{
    co::RoutingRule rule;
    rule.tolerance = tolerance;
    rule.cfg.kind = co::PolicyKind::Single;
    rule.cfg.primary = version;
    rule.cfg.secondary = version;
    return rule;
}

/** Sum of a counter's value across all label sets (-1 if absent). */
double
counterValue(ob::Registry &reg, const std::string &name)
{
    double total = 0.0;
    bool found = false;
    for (const auto &s : reg.snapshot()) {
        if (s.name == name) {
            total += s.value;
            found = true;
        }
    }
    return found ? total : -1.0;
}

} // namespace

// ---------------------------------------------------------- FaultSchedule

TEST(FaultSchedule, DecisionsAreDeterministicPerSeed)
{
    sv::FaultSchedule a(mix(0.2, 0.1, 0.1, 0.05, 42));
    sv::FaultSchedule b(mix(0.2, 0.1, 0.1, 0.05, 42));
    sv::FaultSchedule c(mix(0.2, 0.1, 0.1, 0.05, 43));
    bool any_differs = false;
    for (std::uint64_t p = 0; p < 200; ++p) {
        for (std::uint64_t k = 0; k < 5; ++k) {
            EXPECT_EQ(a.decide(p, k), b.decide(p, k));
            any_differs =
                any_differs || a.decide(p, k) != c.decide(p, k);
        }
    }
    EXPECT_TRUE(any_differs); // A different seed is a different plan.
}

TEST(FaultSchedule, RatesComeOutApproximatelyRight)
{
    sv::FaultSchedule sched(mix(0.10, 0.05, 0.0, 0.0, 7));
    std::size_t failures = 0, timeouts = 0, none = 0;
    constexpr std::size_t kDraws = 20000;
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        switch (sched.decide(i, 0)) {
          case sv::FaultKind::Failure:
            ++failures;
            break;
          case sv::FaultKind::Timeout:
            ++timeouts;
            break;
          case sv::FaultKind::None:
            ++none;
            break;
          default:
            FAIL() << "unexpected fault kind";
        }
    }
    EXPECT_NEAR(static_cast<double>(failures) / kDraws, 0.10, 0.01);
    EXPECT_NEAR(static_cast<double>(timeouts) / kDraws, 0.05, 0.01);
    EXPECT_EQ(failures + timeouts + none, kDraws);
}

TEST(FaultSchedule, EmptyScheduleNeverInjects)
{
    sv::FaultSchedule sched;
    EXPECT_TRUE(sched.spec().none());
    for (std::uint64_t p = 0; p < 100; ++p)
        EXPECT_EQ(sched.decide(p, 0), sv::FaultKind::None);
}

TEST(FaultSchedule, InvalidSpecIsFatal)
{
    EXPECT_DEATH(sv::FaultSchedule(mix(0.8, 0.3, 0.0, 0.0, 1)),
                 "rates");
    EXPECT_DEATH(sv::FaultSchedule(mix(-0.1, 0.0, 0.0, 0.0, 1)),
                 "rates");
}

// -------------------------------------------------- FaultyServiceVersion

TEST(FaultyVersion, FailureBurnsPartialLatencyAndReportsFailed)
{
    StubVersion inner("v", 0.020, 2.0);
    auto spec = mix(1.0, 0.0, 0.0, 0.0, 1);
    spec.failureLatencyFraction = 0.25;
    sv::FaultyServiceVersion faulty(inner, sv::FaultSchedule(spec));

    auto a = faulty.processAttempt(3, 0);
    EXPECT_TRUE(a.failed);
    EXPECT_TRUE(a.result.output.empty());
    EXPECT_DOUBLE_EQ(a.result.latencySeconds, 0.020 * 0.25);
    EXPECT_DOUBLE_EQ(a.result.costDollars, 2.0 * 0.25);
    EXPECT_DOUBLE_EQ(a.result.error, 1.0);
    EXPECT_GE(faulty.injectedCount(sv::FaultKind::Failure), 1u);
}

TEST(FaultyVersion, TimeoutHangsWithoutReportingFailure)
{
    StubVersion inner("v", 0.020, 2.0);
    auto spec = mix(0.0, 1.0, 0.0, 0.0, 1);
    spec.timeoutLatencySeconds = 9.0;
    sv::FaultyServiceVersion faulty(inner, sv::FaultSchedule(spec));

    auto a = faulty.processAttempt(3, 0);
    EXPECT_FALSE(a.failed); // Hangs are caught by deadlines.
    EXPECT_DOUBLE_EQ(a.result.latencySeconds, 9.0);
}

TEST(FaultyVersion, SlowdownScalesLatencyAndCost)
{
    StubVersion inner("v", 0.020, 2.0);
    auto spec = mix(0.0, 0.0, 1.0, 0.0, 1);
    spec.slowdownFactor = 3.0;
    sv::FaultyServiceVersion faulty(inner, sv::FaultSchedule(spec));

    auto a = faulty.processAttempt(0, 0);
    EXPECT_FALSE(a.failed);
    EXPECT_DOUBLE_EQ(a.result.latencySeconds, 0.060);
    EXPECT_DOUBLE_EQ(a.result.costDollars, 6.0);
    EXPECT_EQ(a.result.output, "v-answer-0"); // Result is fine.
}

TEST(FaultyVersion, CorruptionIsSilent)
{
    StubVersion inner("v", 0.020, 2.0);
    sv::FaultyServiceVersion faulty(
        inner, sv::FaultSchedule(mix(0.0, 0.0, 0.0, 1.0, 1)));

    auto a = faulty.processAttempt(5, 0);
    EXPECT_FALSE(a.failed); // Undetectable without ground truth.
    EXPECT_NE(a.result.output, "v-answer-5");
    EXPECT_DOUBLE_EQ(a.result.error, 1.0);
}

TEST(FaultyVersion, SameAttemptReplaysSameFault)
{
    StubVersion inner("v", 0.020, 2.0);
    sv::FaultyServiceVersion faulty(
        inner, sv::FaultSchedule(mix(0.3, 0.2, 0.1, 0.1, 11)));
    for (std::uint64_t k = 0; k < 8; ++k) {
        auto first = faulty.processAttempt(9, k);
        auto again = faulty.processAttempt(9, k);
        EXPECT_EQ(first.failed, again.failed);
        EXPECT_EQ(first.result.output, again.result.output);
        EXPECT_DOUBLE_EQ(first.result.latencySeconds,
                         again.result.latencySeconds);
    }
}

// ----------------------------------------------------------- executeStage

TEST(ExecuteStage, RetryRescuesTransientFailure)
{
    StubVersion inner("v", 0.010, 1.0);
    sv::FaultSchedule sched(mix(0.5, 0.0, 0.0, 0.0, 3));
    sv::FaultyServiceVersion faulty(inner, sched);

    // Find a payload whose first attempt fails and whose first
    // retry (attempt id 2: hedge ids are odd) succeeds.
    std::size_t payload = kWorkload;
    for (std::size_t p = 0; p < kWorkload; ++p) {
        if (sched.decide(p, 0) == sv::FaultKind::Failure &&
            sched.decide(p, 2) == sv::FaultKind::None) {
            payload = p;
            break;
        }
    }
    ASSERT_LT(payload, kWorkload);

    co::ResiliencePolicy policy;
    policy.maxRetries = 2;
    policy.backoffBaseSeconds = 0.001;
    auto out = co::executeStage(
        faulty, payload, policy,
        std::numeric_limits<double>::infinity(), 0);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.retries, 1u);
    EXPECT_EQ(out.failures, 1u);
    EXPECT_EQ(out.result.output,
              "v-answer-" + std::to_string(payload));
    ASSERT_EQ(out.attempts.size(), 2u);
    EXPECT_TRUE(out.attempts[0].failed);
    EXPECT_TRUE(out.attempts[1].won);
    // Latency covers both attempts plus the backoff between them.
    EXPECT_GT(out.latencySeconds, 0.010);
}

TEST(ExecuteStage, DeadlineCatchesHungBackend)
{
    StubVersion inner("v", 0.010, 1.0);
    auto spec = mix(0.0, 1.0, 0.0, 0.0, 5);
    spec.timeoutLatencySeconds = 30.0;
    sv::FaultyServiceVersion faulty(inner, sv::FaultSchedule(spec));

    co::ResiliencePolicy policy;
    policy.stageDeadlineSeconds = 0.05;
    policy.maxRetries = 1;
    policy.backoffBaseSeconds = 0.001;
    auto out = co::executeStage(
        faulty, 0, policy, std::numeric_limits<double>::infinity(),
        0);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.timeouts, 2u); // Initial attempt + one retry.
    for (const auto &a : out.attempts) {
        EXPECT_TRUE(a.timedOut);
        EXPECT_LE(a.latencySeconds, 0.05 + 1e-12);
    }
    // Each attempt burned exactly the deadline, never the hang.
    EXPECT_LT(out.latencySeconds, 0.2);
}

TEST(ExecuteStage, HedgeRescuesStraggler)
{
    StubVersion inner("v", 0.010, 1.0);
    auto spec = mix(0.0, 0.0, 0.6, 0.0, 9);
    spec.slowdownFactor = 10.0;
    sv::FaultSchedule sched(spec);
    sv::FaultyServiceVersion faulty(inner, sched);

    // A payload whose primary attempt straggles but whose hedge
    // (attempt id 1) runs clean.
    std::size_t payload = kWorkload;
    for (std::size_t p = 0; p < kWorkload; ++p) {
        if (sched.decide(p, 0) == sv::FaultKind::SlowDown &&
            sched.decide(p, 1) == sv::FaultKind::None) {
            payload = p;
            break;
        }
    }
    ASSERT_LT(payload, kWorkload);

    co::ResiliencePolicy policy;
    policy.hedgeDelaySeconds = 0.02;
    auto out = co::executeStage(
        faulty, payload, policy,
        std::numeric_limits<double>::infinity(), 0);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.hedges, 1u);
    // The hedge answers at delay + clean latency, well before the
    // straggler would have (0.1s).
    EXPECT_DOUBLE_EQ(out.latencySeconds, 0.02 + 0.010);
    ASSERT_EQ(out.attempts.size(), 2u);
    EXPECT_TRUE(out.attempts[1].hedge);
    EXPECT_TRUE(out.attempts[1].won);
    // Both legs are billed for the time they ran.
    EXPECT_GT(out.costDollars, 1.0);
}

namespace {

/** Forwards to `inner` and records the thread each attempt ran on. */
class ThreadRecordingVersion : public sv::ServiceVersion
{
  public:
    explicit ThreadRecordingVersion(const sv::ServiceVersion &inner)
        : inner_(inner)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    const std::string &instanceName() const override
    {
        return inner_.instanceName();
    }
    std::size_t workloadSize() const override
    {
        return inner_.workloadSize();
    }
    sv::VersionResult
    process(std::size_t index) const override
    {
        return inner_.process(index);
    }
    sv::AttemptResult
    processAttempt(std::size_t index,
                   std::uint64_t attempt) const override
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            threads_.push_back(std::this_thread::get_id());
        }
        return inner_.processAttempt(index, attempt);
    }

    std::vector<std::thread::id>
    threads() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return threads_;
    }

  private:
    const sv::ServiceVersion &inner_;
    mutable std::mutex mu_;
    mutable std::vector<std::thread::id> threads_; // GUARDED_BY(mu_)
};

} // namespace

TEST(ExecuteStage, HedgeRunsOnTheCallingThread)
{
    // The primary has returned before the hedge starts and the
    // merge uses modeled time, so a second thread would add no
    // concurrency: both legs run on the caller.
    StubVersion inner("v", 0.010, 1.0);
    auto spec = mix(0.0, 0.0, 1.0, 0.0, 9);
    spec.slowdownFactor = 10.0;
    sv::FaultyServiceVersion faulty(inner, sv::FaultSchedule(spec));
    ThreadRecordingVersion recorder(faulty);

    co::ResiliencePolicy policy;
    policy.hedgeDelaySeconds = 0.02;
    auto out = co::executeStage(
        recorder, 0, policy, std::numeric_limits<double>::infinity(),
        0);
    EXPECT_EQ(out.hedges, 1u);
    ASSERT_EQ(out.attempts.size(), 2u);
    EXPECT_TRUE(out.attempts[1].hedge);
    auto threads = recorder.threads();
    ASSERT_EQ(threads.size(), 2u);
    EXPECT_EQ(threads[0], std::this_thread::get_id());
    EXPECT_EQ(threads[1], std::this_thread::get_id());
}

TEST(ExecuteStage, GivesUpWhenBudgetExhausted)
{
    StubVersion inner("v", 0.010, 1.0);
    sv::FaultyServiceVersion faulty(
        inner, sv::FaultSchedule(mix(1.0, 0.0, 0.0, 0.0, 2)));

    co::ResiliencePolicy policy;
    policy.maxRetries = 50;
    policy.backoffBaseSeconds = 0.001;
    auto out = co::executeStage(faulty, 0, policy, 0.02, 0);
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.gaveUp || out.retries < 50);
    EXPECT_LE(out.latencySeconds, 0.02 + 1e-12);
}

// --------------------------------------------- TierService under faults

namespace {

/** Three-version ladder with v0/v1 wrapped in a fault schedule. */
struct FaultyStack
{
    StubVersion fast{"fast", 0.010, 1.0};
    StubVersion mid{"mid", 0.030, 3.0};
    StubVersion slow{"slow", 0.050, 5.0};
    sv::FaultyServiceVersion faultyFast;
    sv::FaultyServiceVersion faultyMid;

    explicit FaultyStack(const sv::FaultSpec &spec)
        : faultyFast(fast, sv::FaultSchedule(spec)),
          faultyMid(mid, sv::FaultSchedule(spec))
    {
    }

    std::vector<co::VersionProfile>
    profiles() const
    {
        co::VersionProfile p0{0, 0.20, 0.010, 1.0};
        co::VersionProfile p1{1, 0.04, 0.030, 3.0};
        co::VersionProfile p2{2, 0.0, 0.050, 5.0};
        return {p0, p1, p2};
    }
};

} // namespace

TEST(TierServiceFaults, FallsBackToCheapestSatisfyingVersion)
{
    FaultyStack stack(mix(1.0, 0.0, 0.0, 0.0, 21)); // v0/v1 dead.
    co::TierService svc(
        {&stack.faultyFast, &stack.mid, &stack.slow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles(stack.profiles());
    co::ResiliencePolicy policy;
    policy.maxRetries = 0;
    svc.setResilience(policy);

    sv::ServiceRequest req;
    req.payload = 4;
    req.tier.tolerance = 0.10;
    auto resp = svc.handle(req);
    // v0 (deg 0.20) no longer qualifies at 0.10 and failed anyway;
    // v1 (deg 0.04) is the cheapest satisfying survivor by latency.
    EXPECT_EQ(resp.status, co::ServeStatus::FellBack);
    EXPECT_EQ(resp.fallbackVersion, 1u);
    EXPECT_EQ(resp.output, "mid-answer-4");
    EXPECT_FALSE(resp.violated());
    EXPECT_GE(resp.failures, 1u);
    // The failed primary and the fallback both appear in stages.
    ASSERT_GE(resp.stages.size(), 2u);
    EXPECT_TRUE(resp.stages.front().failed);
    EXPECT_TRUE(resp.stages.back().fallback);
}

TEST(TierServiceFaults, CostObjectivePicksCheapestByDollars)
{
    FaultyStack stack(mix(1.0, 0.0, 0.0, 0.0, 21));
    // Make the mid version pricier than slow so the cost objective
    // must order differently from the latency objective.
    auto profiles = stack.profiles();
    profiles[1].meanCost = 9.0;
    co::TierService svc(
        {&stack.faultyFast, &stack.mid, &stack.slow});
    svc.setRules(sv::Objective::Cost, {singleRule(0.10, 0)});
    svc.setVersionProfiles(profiles);
    svc.setResilience({});

    sv::ServiceRequest req;
    req.payload = 4;
    req.tier.tolerance = 0.10;
    req.tier.objective = sv::Objective::Cost;
    auto resp = svc.handle(req);
    EXPECT_EQ(resp.status, co::ServeStatus::FellBack);
    EXPECT_EQ(resp.fallbackVersion, 2u); // slow: $5 < mid's $9.
}

TEST(TierServiceFaults, ReportsViolationWhenNothingSatisfies)
{
    FaultyStack stack(mix(1.0, 0.0, 0.0, 0.0, 21));
    co::TierService svc(
        {&stack.faultyFast, &stack.mid, &stack.slow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.0, 0)});
    // Only v0's profile is known, and it degrades too much for the
    // request — no known-safe fallback exists.
    svc.setVersionProfiles({{0, 0.20, 0.010, 1.0}});
    svc.setResilience({});

    sv::ServiceRequest req;
    req.payload = 2;
    req.tier.tolerance = 0.01;
    auto resp = svc.handle(req);
    EXPECT_EQ(resp.status, co::ServeStatus::GuaranteeViolation);
    EXPECT_TRUE(resp.violated());
    EXPECT_NE(resp.statusNote.find("no version satisfies"),
              std::string::npos);
}

TEST(TierServiceFaults, ReportsViolationWhenSatisfyingVersionsDie)
{
    FaultyStack stack(mix(1.0, 0.0, 0.0, 0.0, 21));
    sv::FaultyServiceVersion faultySlow(
        stack.slow, sv::FaultSchedule(mix(1.0, 0.0, 0.0, 0.0, 22)));
    co::TierService svc(
        {&stack.faultyFast, &stack.faultyMid, &faultySlow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles(stack.profiles());
    svc.setResilience({});

    sv::ServiceRequest req;
    req.payload = 2;
    req.tier.tolerance = 0.10;
    auto resp = svc.handle(req); // Must report, not crash.
    EXPECT_EQ(resp.status, co::ServeStatus::GuaranteeViolation);
    EXPECT_NE(resp.statusNote.find("failed"), std::string::npos);
    // Every ladder rung was tried before giving up.
    EXPECT_GE(resp.failures, 3u);
}

TEST(TierServiceFaults, HedgingCutsTailLatencyInSequentialPolicy)
{
    auto spec = mix(0.0, 0.0, 0.4, 0.0, 31);
    spec.slowdownFactor = 20.0;
    FaultyStack stack(spec);
    co::TierService svc(
        {&stack.faultyFast, &stack.mid, &stack.slow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles(stack.profiles());

    auto serve_all = [&](double hedge_delay) {
        co::ResiliencePolicy policy;
        policy.hedgeDelaySeconds = hedge_delay;
        svc.setResilience(policy);
        double total = 0.0;
        for (std::size_t p = 0; p < kWorkload; ++p) {
            sv::ServiceRequest req;
            req.payload = p;
            req.tier.tolerance = 0.10;
            total += svc.handle(req).latencySeconds;
        }
        return total;
    };

    double without = serve_all(0.0);
    double with = serve_all(0.015);
    EXPECT_LT(with, without); // Hedges rescue the stragglers.
}

TEST(TierServiceFaults, FaultsDoNotPerturbCleanRequests)
{
    // The same service with and without an (idle) resilience policy
    // returns identical latency/cost for fault-free versions.
    StubVersion fast("fast", 0.010, 1.0);
    StubVersion slow("slow", 0.050, 5.0);
    co::TierService plain({&fast, &slow});
    co::RoutingRule rule;
    rule.tolerance = 0.05;
    rule.cfg.kind = co::PolicyKind::Sequential;
    rule.cfg.primary = 0;
    rule.cfg.secondary = 1;
    rule.cfg.confidenceThreshold = 0.5;
    plain.setRules(sv::Objective::ResponseTime, {rule});

    co::TierService hardened({&fast, &slow});
    hardened.setRules(sv::Objective::ResponseTime, {rule});
    co::ResiliencePolicy policy;
    policy.stageDeadlineSeconds = 10.0;
    policy.requestBudgetSeconds = 60.0;
    policy.maxRetries = 3;
    hardened.setResilience(policy);

    for (std::size_t p = 0; p < 8; ++p) {
        sv::ServiceRequest req;
        req.payload = p;
        req.tier.tolerance = 0.05;
        auto a = plain.handle(req);
        auto b = hardened.handle(req);
        EXPECT_EQ(a.output, b.output);
        EXPECT_DOUBLE_EQ(a.latencySeconds, b.latencySeconds);
        EXPECT_DOUBLE_EQ(a.costDollars, b.costDollars);
        EXPECT_EQ(b.status, co::ServeStatus::Ok);
    }
}

// ------------------------------------------------- telemetry under faults

TEST(FaultObs, CountersTrackRetriesHedgesFallbacksAndViolations)
{
    FaultyStack stack(mix(1.0, 0.0, 0.0, 0.0, 21));
    co::TierService svc(
        {&stack.faultyFast, &stack.mid, &stack.slow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles(stack.profiles());
    co::ResiliencePolicy policy;
    policy.maxRetries = 1;
    policy.backoffBaseSeconds = 0.001;
    svc.setResilience(policy);

    ob::Registry reg;
    ob::Tracer tracer;
    ob::GuaranteeMonitor monitor;
    svc.attachObservability({&reg, &tracer, &monitor});

    constexpr std::size_t kRequests = 10;
    for (std::size_t p = 0; p < kRequests; ++p) {
        sv::ServiceRequest req;
        req.payload = p;
        req.tier.tolerance = 0.10;
        auto resp = svc.handle(req);
        EXPECT_EQ(resp.status, co::ServeStatus::FellBack);
    }

    // Every request failed once, retried once, then fell back.
    EXPECT_DOUBLE_EQ(counterValue(reg, "tt_retries_total"),
                     static_cast<double>(kRequests));
    EXPECT_DOUBLE_EQ(counterValue(reg, "tt_fallbacks_total"),
                     static_cast<double>(kRequests));
    EXPECT_DOUBLE_EQ(
        counterValue(reg, "tt_guarantee_violations_total"), 0.0);
    EXPECT_DOUBLE_EQ(counterValue(reg, "tt_hedges_total"), 0.0);
    // The injector's own counters saw the same failures.
    EXPECT_GE(stack.faultyFast.injectedCount(
                  sv::FaultKind::Failure),
              kRequests);
}

TEST(FaultObs, SpansAnnotateFailedAttemptsAndFallbacks)
{
    FaultyStack stack(mix(1.0, 0.0, 0.0, 0.0, 21));
    co::TierService svc(
        {&stack.faultyFast, &stack.mid, &stack.slow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles(stack.profiles());
    svc.setResilience({});

    ob::Registry reg;
    ob::Tracer tracer;
    svc.attachObservability({&reg, &tracer, nullptr});

    sv::ServiceRequest req;
    req.payload = 6;
    req.tier.tolerance = 0.10;
    auto resp = svc.handle(req);
    ASSERT_NE(resp.traceId, 0u);

    auto records = tracer.drain();
    ASSERT_EQ(records.size(), 1u);
    const auto &spans = records[0].spans;

    auto has_attr = [&](const ob::SpanRecord &span,
                        const std::string &key,
                        const std::string &value) {
        for (const auto &[k, v] : span.attrs)
            if (k == key && v == value)
                return true;
        return false;
    };

    bool saw_failed = false, saw_fallback = false,
         saw_status = false;
    for (const auto &span : spans) {
        saw_failed = saw_failed || has_attr(span, "failed", "true");
        saw_fallback =
            saw_fallback || has_attr(span, "fallback", "true");
        if (span.name == "request") {
            saw_status =
                has_attr(span, "status", "fell-back");
        }
    }
    EXPECT_TRUE(saw_failed);
    EXPECT_TRUE(saw_fallback);
    EXPECT_TRUE(saw_status);
}

TEST(FaultObs, MonitorFlagsTierServedInViolation)
{
    FaultyStack stack(mix(1.0, 0.0, 0.0, 0.0, 21));
    sv::FaultyServiceVersion faultySlow(
        stack.slow, sv::FaultSchedule(mix(1.0, 0.0, 0.0, 0.0, 22)));
    co::TierService svc(
        {&stack.faultyFast, &stack.faultyMid, &faultySlow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles(stack.profiles());
    svc.setResilience({});

    ob::Registry reg;
    ob::GuaranteeMonitor monitor;
    svc.attachObservability({&reg, nullptr, &monitor});

    sv::ServiceRequest req;
    req.payload = 1;
    req.tier.tolerance = 0.10;
    auto resp = svc.handle(req);
    ASSERT_TRUE(resp.violated());

    // One explicit served violation flags the tier immediately —
    // no minSamples accumulation needed.
    EXPECT_GE(monitor.violationCount(), 1u);
    bool flagged = false;
    for (const auto &st : monitor.statuses()) {
        if (st.servedViolation) {
            flagged = true;
            EXPECT_GE(st.servedViolations, 1u);
        }
    }
    EXPECT_TRUE(flagged);
    EXPECT_NE(monitor.report().find("SERVED"), std::string::npos);
    EXPECT_DOUBLE_EQ(
        counterValue(reg, "tt_guarantee_violations_total"), 1.0);

    monitor.updateMetrics(reg);
    EXPECT_GE(counterValue(
                  reg, "tt_guarantee_served_violations"),
              1.0);
}

// --------------------------------------------------- ClusterSim chaos

namespace {

std::vector<sv::SimJob>
chainJobs(std::size_t n)
{
    std::vector<sv::SimJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        sv::SimJob j;
        j.arrival = 0.01 * static_cast<double>(i);
        j.stages = {{0, 0.05}, {1, 0.02}};
        jobs.push_back(j);
    }
    return jobs;
}

} // namespace

TEST(ClusterSimFaults, SameScheduleIsBitForBitDeterministic)
{
    sv::ClusterSim sim({{"a", 2, 1e-4}, {"b", 2, 2e-4}});
    sv::FaultSchedule sched(mix(0.2, 0.1, 0.1, 0.05, 77));
    sv::SimFaultConfig faults;
    faults.schedule = &sched;
    faults.maxRetries = 2;
    sim.setFaults(faults);

    auto jobs = chainJobs(200);
    auto a = sim.run(jobs);
    auto b = sim.run(jobs);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].responseTime, b.jobs[i].responseTime);
        EXPECT_EQ(a.jobs[i].cost, b.jobs[i].cost);
        EXPECT_EQ(a.jobs[i].failed, b.jobs[i].failed);
        EXPECT_EQ(a.jobs[i].retries, b.jobs[i].retries);
        EXPECT_EQ(a.jobs[i].corrupt, b.jobs[i].corrupt);
    }
    EXPECT_EQ(a.totalCost, b.totalCost);
    EXPECT_EQ(a.makespan, b.makespan);
}

TEST(ClusterSimFaults, RetriesRecoverTransientFailures)
{
    sv::ClusterSim sim({{"a", 4, 1e-4}, {"b", 4, 2e-4}});
    sv::FaultSchedule sched(mix(0.3, 0.0, 0.0, 0.0, 13));
    sv::SimFaultConfig faults;
    faults.schedule = &sched;
    faults.maxRetries = 4;
    faults.backoffBaseSeconds = 0.001;
    sim.setFaults(faults);

    auto report = sim.run(chainJobs(200));
    EXPECT_GT(report.totalRetries, 0u);
    // With four retries against a 30% failure rate, nearly every
    // job recovers.
    EXPECT_LT(report.failedJobs, 5u);
}

TEST(ClusterSimFaults, ExhaustedJobsRespondAsFailedNotDropped)
{
    sv::ClusterSim sim({{"a", 2, 1e-4}, {"b", 2, 2e-4}});
    sv::FaultSchedule sched(mix(1.0, 0.0, 0.0, 0.0, 5));
    sv::SimFaultConfig faults;
    faults.schedule = &sched;
    faults.maxRetries = 1;
    sim.setFaults(faults);

    auto report = sim.run(chainJobs(50));
    EXPECT_EQ(report.failedJobs, 50u);
    for (const auto &job : report.jobs) {
        EXPECT_TRUE(job.failed);
        EXPECT_GT(job.responseTime, 0.0); // Failed loudly, in time.
        EXPECT_GT(job.cost, 0.0);        // Burned work is billed.
    }
}

TEST(ClusterSimFaults, RacedJobSurvivesOneDeadLeg)
{
    sv::ClusterSim sim({{"a", 2, 1e-4}, {"b", 2, 2e-4}});
    // Pool 0's stage always times out (stage key 0); craft a spec
    // where only stage 0 draws faults by giving the schedule a
    // rate of 1 and retry budget 0, then racing both legs.
    sv::FaultSchedule sched(mix(1.0, 0.0, 0.0, 0.0, 5));
    sv::SimFaultConfig faults;
    faults.schedule = &sched;
    faults.maxRetries = 0;
    sim.setFaults(faults);

    // Both legs always fail => the race fails loudly.
    sv::SimJob race;
    race.concurrent = true;
    race.acceptFirst = true;
    race.stages = {{0, 0.05}, {1, 0.08}};
    auto report = sim.run({race});
    EXPECT_EQ(report.failedJobs, 1u);
}

TEST(ClusterSimFaults, CorruptJobsAreCounted)
{
    sv::ClusterSim sim({{"a", 2, 1e-4}, {"b", 2, 2e-4}});
    sv::FaultSchedule sched(mix(0.0, 0.0, 0.0, 1.0, 5));
    sv::SimFaultConfig faults;
    faults.schedule = &sched;
    sim.setFaults(faults);

    auto report = sim.run(chainJobs(20));
    EXPECT_EQ(report.corruptJobs, 20u);
    EXPECT_EQ(report.failedJobs, 0u); // Silent: served, not failed.
}

// ------------------------------------------------- acceptance: 10-fold

namespace {

/** Per-request serving record for reproducibility comparison. */
struct ServeRecord
{
    int status;
    std::string output;
    double latency;
    double cost;

    bool
    operator==(const ServeRecord &other) const
    {
        return status == other.status && output == other.output &&
               latency == other.latency && cost == other.cost;
    }
};

} // namespace

TEST(FaultAcceptance, TenFoldChaosKeepsGuaranteesWhereFallbackExists)
{
    // The issue's acceptance scenario: 10% failures + 5% timeouts
    // injected into the two cheap versions, 10-fold cross-validated
    // replay. The reference version is fault-free, so a satisfying
    // fallback always exists — no request may be served in
    // violation, and the whole run must reproduce bit-for-bit.
    constexpr std::size_t kRequests = 400;
    constexpr std::size_t kFolds = 10;
    constexpr std::size_t kFoldSize = kRequests / kFolds;

    auto spec = mix(0.10, 0.05, 0.0, 0.0, 2026);
    spec.timeoutLatencySeconds = 2.0;

    auto run_once = [&]() {
        StubVersion fast("fast", 0.010, 1.0, 0.9, kRequests);
        StubVersion mid("mid", 0.030, 3.0, 0.9, kRequests);
        StubVersion slow("slow", 0.050, 5.0, 0.95, kRequests);
        sv::FaultyServiceVersion faultyFast(
            fast, sv::FaultSchedule(spec));
        sv::FaultyServiceVersion faultyMid(
            mid, sv::FaultSchedule(spec));

        co::TierService svc({&faultyFast, &faultyMid, &slow});
        svc.setRules(sv::Objective::ResponseTime,
                     {singleRule(0.05, 1), singleRule(0.10, 0)});
        svc.setVersionProfiles(
            {{0, 0.08, 0.010, 1.0}, {1, 0.03, 0.030, 3.0},
             {2, 0.0, 0.050, 5.0}});
        co::ResiliencePolicy policy;
        policy.stageDeadlineSeconds = 0.5;
        policy.requestBudgetSeconds = 5.0;
        policy.maxRetries = 1;
        policy.backoffBaseSeconds = 0.002;
        svc.setResilience(policy);

        std::vector<ServeRecord> records;
        std::size_t violations = 0, fallbacks = 0;
        for (std::size_t fold = 0; fold < kFolds; ++fold) {
            for (std::size_t i = 0; i < kFoldSize; ++i) {
                sv::ServiceRequest req;
                req.payload = fold * kFoldSize + i;
                // Alternate tiers across the fold.
                req.tier.tolerance = i % 2 == 0 ? 0.10 : 0.05;
                auto resp = svc.handle(req);
                violations += resp.violated() ? 1 : 0;
                fallbacks +=
                    resp.status == co::ServeStatus::FellBack ? 1
                                                             : 0;
                EXPECT_FALSE(resp.output.empty());
                EXPECT_LE(resp.latencySeconds, 5.0 + 1e-9);
                records.push_back({static_cast<int>(resp.status),
                                   resp.output,
                                   resp.latencySeconds,
                                   resp.costDollars});
            }
        }
        EXPECT_EQ(violations, 0u);
        EXPECT_GT(fallbacks, 0u); // The chaos actually did bite.
        return records;
    };

    auto first = run_once();
    auto second = run_once();
    ASSERT_EQ(first.size(), kRequests);
    EXPECT_TRUE(first == second); // Same seed, same everything.
}

TEST(FaultAcceptance, AllVersionsDeadReportsEveryViolation)
{
    // The complement: when no satisfying version can answer, every
    // request is an explicit violation — reported, never a crash.
    constexpr std::size_t kRequests = 40;
    auto spec = mix(1.0, 0.0, 0.0, 0.0, 99);
    StubVersion fast("fast", 0.010, 1.0, 0.9, kRequests);
    StubVersion slow("slow", 0.050, 5.0, 0.95, kRequests);
    sv::FaultyServiceVersion faultyFast(fast,
                                        sv::FaultSchedule(spec));
    sv::FaultyServiceVersion faultySlow(slow,
                                        sv::FaultSchedule(spec));

    co::TierService svc({&faultyFast, &faultySlow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles({{0, 0.05, 0.010, 1.0},
                            {1, 0.0, 0.050, 5.0}});
    svc.setResilience({});

    for (std::size_t p = 0; p < kRequests; ++p) {
        sv::ServiceRequest req;
        req.payload = p;
        req.tier.tolerance = 0.10;
        auto resp = svc.handle(req);
        EXPECT_EQ(resp.status, co::ServeStatus::GuaranteeViolation);
        EXPECT_FALSE(resp.statusNote.empty());
    }
}
