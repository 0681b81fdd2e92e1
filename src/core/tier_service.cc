#include "core/tier_service.hh"

#include <algorithm>
#include <future>
#include <limits>

#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "common/strings.hh"
#include "serving/cache.hh"
#include "serving/tenant.hh"

namespace toltiers::core {

using common::fatal;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Stable "tier" label value for a rule tolerance. */
std::string
tierLabel(double tolerance)
{
    return common::strprintf("%g", tolerance);
}

obs::Labels
tierLabels(serving::Objective objective, double tolerance)
{
    return {{"objective", serving::objectiveName(objective)},
            {"tier", tierLabel(tolerance)}};
}

/**
 * Cost a stage accrues by absolute time `t` when cancelled there —
 * proportional over the stage's own timeline, the same
 * early-termination billing the paper applies to raced losers.
 */
double
proratedCost(const StageOutcome &outcome, double t)
{
    if (outcome.latencySeconds <= 0.0)
        return outcome.costDollars;
    double frac =
        std::clamp(t / outcome.latencySeconds, 0.0, 1.0);
    return outcome.costDollars * frac;
}

/** Attempt-id namespaces: stage i of the rule uses salt 64*i;
 * fallback stage j uses 128 + 64*j. 32 attempt rounds (two ids
 * each) fit without collision. */
constexpr std::uint64_t kStageSaltStride = 64;
constexpr std::uint64_t kFallbackSaltBase = 128;

const char *serveStatusNames[] = {"ok", "fell-back", "violation"};

} // namespace

const char *
serveStatusName(ServeStatus status)
{
    return serveStatusNames[static_cast<std::size_t>(status)];
}

TierService::TierService(
    std::vector<const serving::ServiceVersion *> versions)
    : versions_(std::move(versions))
{
    TT_ASSERT(!versions_.empty(), "tier service needs versions");
    std::size_t workload = versions_[0]->workloadSize();
    for (const auto *v : versions_) {
        TT_ASSERT(v != nullptr, "null service version");
        TT_ASSERT(v->workloadSize() == workload,
                  "versions must share one workload");
    }
    referenceRule_.tolerance = 0.0;
    referenceRule_.cfg.kind = PolicyKind::Single;
    referenceRule_.cfg.primary = versions_.size() - 1;
    referenceRule_.cfg.secondary = versions_.size() - 1;
    resetSeries();
}

void
TierService::setRules(serving::Objective objective,
                      std::vector<RoutingRule> rules)
{
    std::sort(rules.begin(), rules.end(),
              [](const RoutingRule &a, const RoutingRule &b) {
                  return a.tolerance < b.tolerance;
              });
    for (const RoutingRule &r : rules) {
        TT_ASSERT(r.cfg.primary < versions_.size() &&
                      r.cfg.secondary < versions_.size(),
                  "rule references an unknown version");
    }
    installGuarantees(objective, rules);
    registerRuleSeries(objective, rules);
    rules_[objective].rules = std::move(rules);
    resetSeries();
}

void
TierService::setResilience(const ResiliencePolicy &policy)
{
    TT_ASSERT(policy.backoffBaseSeconds >= 0.0 &&
                  policy.backoffMultiplier >= 1.0,
              "invalid backoff parameters");
    TT_ASSERT(policy.backoffJitterFraction >= 0.0 &&
                  policy.backoffJitterFraction <= 1.0,
              "backoff jitter fraction outside [0, 1]");
    resilience_ = policy;
}

void
TierService::setVersionProfiles(
    std::vector<VersionProfile> profiles)
{
    for (const VersionProfile &p : profiles) {
        TT_ASSERT(p.version < versions_.size(),
                  "profile references an unknown version");
    }
    profiles_ = std::move(profiles);
}

void
TierService::attachObservability(const obs::ObsContext &ctx,
                                 obs::DegradationKind kind)
{
    ctx_ = ctx;
    degradationKind_ = kind;
    for (const auto &[objective, tiers] : rules_) {
        installGuarantees(objective, tiers.rules);
        registerRuleSeries(objective, tiers.rules);
    }
    resetSeries();
}

void
TierService::resetSeries()
{
    for (auto &[objective, tiers] : rules_) {
        tiers.series =
            std::make_unique<TierSeries[]>(tiers.rules.size() + 1);
    }
    stageSeries_ = std::make_unique<StageSeries>();
    common::MutexLock lock(tenantMu_);
    for (auto &head : tenantBuckets_)
        head.store(nullptr, std::memory_order_relaxed);
    tenantNodes_.clear();
}

const TierService::TenantSeries &
TierService::tenantSeries(const std::string &tenant) const
{
    auto find = [&](const TenantSeries *node) -> const TenantSeries * {
        for (; node != nullptr; node = node->next) {
            if (node->tenant == tenant)
                return node;
        }
        return nullptr;
    };
    std::atomic<const TenantSeries *> &bucket =
        tenantBuckets_[std::hash<std::string>{}(tenant) %
                       kTenantBuckets];
    if (const TenantSeries *hit =
            find(bucket.load(std::memory_order_acquire)))
        return *hit;

    // First sight: insert under the lock (re-checking for a racing
    // insert of the same tenant), then publish the new head. Nodes
    // are never unlinked while the service serves.
    common::MutexLock lock(tenantMu_);
    const TenantSeries *head = bucket.load(std::memory_order_relaxed);
    if (const TenantSeries *hit = find(head))
        return *hit;
    auto node = std::make_unique<TenantSeries>();
    node->tenant = tenant;
    node->next = head;
    const TenantSeries *fresh = node.get();
    tenantNodes_.push_back(std::move(node));
    bucket.store(fresh, std::memory_order_release);
    return *fresh;
}

void
TierService::installGuarantees(serving::Objective objective,
                               const std::vector<RoutingRule> &rules)
{
    if (!ctx_.monitor)
        return;
    // The implicit reference tier serves requests tighter than
    // every installed rule; it degrades by zero by construction.
    obs::TierGuarantee ref;
    ref.objective = serving::objectiveName(objective);
    ref.tolerance = referenceRule_.tolerance;
    ref.kind = degradationKind_;
    ctx_.monitor->installTier(ref);

    for (const RoutingRule &r : rules) {
        obs::TierGuarantee g;
        g.objective = serving::objectiveName(objective);
        g.tolerance = r.tolerance;
        g.worstLatency = r.worstLatency;
        g.worstCost = r.worstCost;
        g.kind = degradationKind_;
        ctx_.monitor->installTier(g);
    }
}

void
TierService::registerRuleSeries(serving::Objective objective,
                                const std::vector<RoutingRule> &rules)
{
    if (!ctx_.metrics)
        return;
    // Pre-register every tier's series so a snapshot shows zeroed
    // counters for tiers that have not seen traffic yet.
    for (const RoutingRule &r : rules) {
        obs::Labels labels = tierLabels(objective, r.tolerance);
        ctx_.metrics->counter("tt_tier_requests_total", labels,
                              "Requests served per tier");
        ctx_.metrics->counter("tt_tier_escalations_total",
                              labels,
                              "Requests escalated to the secondary");
        ctx_.metrics->histogram("tt_tier_latency_seconds",
                                labels, {},
                                "Response latency per tier");
        ctx_.metrics->counter("tt_retries_total", labels,
                              "Stage retry attempts per tier");
        ctx_.metrics->counter("tt_hedges_total", labels,
                              "Hedged duplicate dispatches per tier");
        ctx_.metrics->counter("tt_fallbacks_total", labels,
                              "Requests served by a fallback version");
        ctx_.metrics->counter(
            "tt_guarantee_violations_total", labels,
            "Requests whose tolerance promise could not be honored");
        ctx_.metrics
            ->gauge("tt_tier_rule_tolerance", labels,
                    "Tolerance of the rule serving the tier")
            .set(r.tolerance);
    }
}

const RoutingRule &
TierService::ruleFor(double tolerance,
                     serving::Objective objective) const
{
    return *match(tolerance, objective).rule;
}

TierService::Match
TierService::match(double tolerance,
                   serving::Objective objective) const
{
    auto it = rules_.find(objective);
    if (it == rules_.end()) {
        fatal("no routing rules installed for objective '",
              serving::objectiveName(objective), "'");
    }
    const Tiers &tiers = it->second;
    std::size_t best = tiers.rules.size(); // The reference tier.
    for (std::size_t i = 0; i < tiers.rules.size(); ++i) {
        if (tiers.rules[i].tolerance <= tolerance + 1e-12)
            best = i;
        else
            break; // Sorted ascending.
    }
    const RoutingRule *rule = best < tiers.rules.size()
                                  ? &tiers.rules[best]
                                  : &referenceRule_;
    return {rule, &tiers.series[best]};
}

TierService::StageRun
TierService::runStage(std::size_t version, std::size_t payload,
                      double budget_left, std::uint64_t salt) const
{
    StageRun run;
    run.version = version;
    run.outcome = executeStage(*versions_[version], payload,
                               resilience_, budget_left, salt);
    return run;
}

void
TierService::appendStageTimings(TierResponse &resp,
                                const StageRun &run, double offset,
                                bool fallback,
                                double cancel_at) const
{
    std::size_t ordinal =
        resp.stages.empty() ? 0
                            : resp.stages.back().stageOrdinal + 1;
    for (const StageAttempt &a : run.outcome.attempts) {
        StageTiming t;
        t.version = run.version;
        t.versionName = versions_[run.version]->name();
        t.startSeconds = offset + a.startSeconds;
        t.latencySeconds = a.latencySeconds;
        t.attempt = a.attemptId;
        t.hedge = a.hedge;
        t.failed = a.failed;
        t.timedOut = a.timedOut;
        t.won = a.won;
        t.fallback = fallback;
        t.stageOrdinal = ordinal;
        if (cancel_at >= 0.0) {
            if (t.startSeconds >= cancel_at)
                continue; // Never dispatched: winner beat its start.
            double end = t.startSeconds + t.latencySeconds;
            if (end > cancel_at) {
                t.latencySeconds = cancel_at - t.startSeconds;
                t.cancelled = true;
            }
        }
        resp.stages.push_back(std::move(t));
    }
}

void
TierService::tallyStage(TierResponse &resp,
                        const StageOutcome &outcome) const
{
    resp.retries += outcome.retries;
    resp.hedges += outcome.hedges;
    resp.timeouts += outcome.timeouts;
    resp.failures += outcome.failures;
}

bool
TierService::runFallbackChain(
    TierResponse &resp, const serving::ServiceRequest &request,
    double &elapsed, double &cost,
    std::vector<bool> &failed_versions) const
{
    if (!resilience_.fallbackEnabled) {
        resp.status = ServeStatus::GuaranteeViolation;
        resp.statusNote = "stage exhausted and fallback disabled";
        return false;
    }

    // The fallback table: recorded per-version worst cases, or just
    // the reference version (zero degradation by construction) when
    // no profiles were installed.
    std::vector<VersionProfile> cands = profiles_;
    if (cands.empty()) {
        VersionProfile ref;
        ref.version = referenceRule_.cfg.primary;
        cands.push_back(ref);
    }

    // Keep the versions whose recorded worst-case degradation still
    // satisfies the *request's* tolerance and whose backend has not
    // already failed this request; serve with the cheapest by the
    // request's objective.
    double tol = request.tier.tolerance;
    std::erase_if(cands, [&](const VersionProfile &p) {
        return p.worstErrorDegradation > tol + 1e-12;
    });
    bool any_satisfying = !cands.empty();
    std::erase_if(cands, [&](const VersionProfile &p) {
        return failed_versions[p.version];
    });
    bool by_latency =
        request.tier.objective == serving::Objective::ResponseTime;
    std::sort(cands.begin(), cands.end(),
              [&](const VersionProfile &a, const VersionProfile &b) {
                  double ka = by_latency ? a.meanLatency : a.meanCost;
                  double kb = by_latency ? b.meanLatency : b.meanCost;
                  if (ka != kb)
                      return ka < kb;
                  return a.version < b.version;
              });

    double budget = resilience_.requestBudgetSeconds > 0.0
                        ? resilience_.requestBudgetSeconds
                        : kInf;
    std::uint64_t salt = kFallbackSaltBase;
    for (const VersionProfile &cand : cands) {
        if (!(budget - elapsed > 0.0))
            break; // Budget exhausted mid-chain.
        StageRun run = runStage(cand.version, request.payload,
                                budget - elapsed, salt);
        salt += kStageSaltStride;
        appendStageTimings(resp, run, elapsed, /*fallback=*/true,
                           -1.0);
        tallyStage(resp, run.outcome);
        cost += run.outcome.costDollars;
        elapsed += run.outcome.latencySeconds;
        if (run.outcome.ok) {
            resp.output = run.outcome.result.output;
            resp.confidence = run.outcome.result.confidence;
            resp.status = ServeStatus::FellBack;
            resp.fallbackVersion = cand.version;
            resp.statusNote =
                "fell back to " + versions_[cand.version]->name();
            return true;
        }
        failed_versions[cand.version] = true;
    }

    resp.status = ServeStatus::GuaranteeViolation;
    resp.statusNote =
        !any_satisfying
            ? "no version satisfies the requested tolerance"
            : "every satisfying version failed or the budget ran out";
    return false;
}

TierResponse
TierService::handle(const serving::ServiceRequest &request) const
{
    // Originator form: no caller-provided trace context, so start
    // (and finish) a trace here when the tracer samples this
    // request. The root span's duration is patched by recordTrace.
    if (ctx_.tracer != nullptr && ctx_.tracer->shouldSample()) {
        obs::Trace trace = ctx_.tracer->startTrace();
        std::uint64_t root = trace.addSpan("request", 0.0, 0.0);
        obs::TraceContext span_ctx{&trace, root, 0.0};
        TierResponse resp = handle(request, span_ctx);
        ctx_.tracer->finish(std::move(trace));
        return resp;
    }
    return handle(request, obs::TraceContext{});
}

TierResponse
TierService::handle(const serving::ServiceRequest &request,
                    const obs::TraceContext &span_ctx) const
{
    TierResponse resp;
    Lookup looked;
    if (lookup(request, span_ctx, resp, looked))
        return resp;
    return execute(request, looked, span_ctx);
}

bool
TierService::lookup(const serving::ServiceRequest &request,
                    const obs::TraceContext &span_ctx,
                    TierResponse &out, Lookup &looked) const
{
    common::Stopwatch rule_match_sw;
    looked.tier_ = match(request.tier.tolerance, request.tier.objective);
    looked.ruleMatchWall_ = rule_match_sw.seconds();
    if (cache_ == nullptr)
        return false;
    const RoutingRule &rule = *looked.tier_.rule;

    // Cache lookup before tier-chain execution: the fingerprint is
    // keyed by the *matched rule's* tolerance (the bucket), and the
    // cache itself re-checks that the stored bound does not exceed
    // the request's tolerance, so a hit never weakens a guarantee.
    common::Stopwatch cache_sw;
    looked.fp_ = serving::makeFingerprint(
        request.payload, request.tier.objective, rule.tolerance);
    serving::CachedResult cached;
    bool hit = cache_->lookup(looked.fp_, request.tier.tolerance, cached);
    looked.cacheWall_ = cache_sw.seconds();
    if (ctx_.metrics != nullptr && obs::metricsEnabled()) {
        // Per-tenant cache attribution: the shared cache's own
        // tt_cache_* tallies stay global; these labelled series
        // show who benefits from (and who churns) it.
        const TenantSeries &ts = tenantSeries(request.tenant);
        (hit ? ts.cacheHits : ts.cacheMisses)
            .get([&]() -> obs::Counter & {
                return ctx_.metrics->counter(
                    hit ? "tt_tenant_cache_hits_total"
                        : "tt_tenant_cache_misses_total",
                    {{"tenant",
                      serving::tenantMetricLabel(request.tenant)}},
                    hit ? "Result-cache hits per tenant"
                        : "Result-cache misses per tenant");
            })
            .inc();
    }
    if (!hit)
        return false;

    out.config = rule.cfg;
    out.ruleTolerance = rule.tolerance;
    out.output = cached.output;
    out.confidence = cached.confidence;
    out.servedFromCache = true;
    out.latencySeconds = 0.0;
    out.costDollars = 0.0;
    recordMetrics(request.tier.objective, looked.tier_, out);
    recordStageMetrics(out, looked.ruleMatchWall_, looked.cacheWall_);
    recordSlo(request, rule, out);
    if (ctx_.monitor) {
        ctx_.monitor->observeLatency(
            serving::objectiveName(request.tier.objective),
            rule.tolerance, out.latencySeconds);
    }
    if (span_ctx.active()) {
        recordTrace(request, out, looked.ruleMatchWall_,
                    looked.cacheWall_, span_ctx);
    }
    return true;
}

TierResponse
TierService::execute(const serving::ServiceRequest &request,
                     const Lookup &looked,
                     const obs::TraceContext &span_ctx) const
{
    const Match &tier = looked.tier_;
    const RoutingRule &rule = *tier.rule;
    const EnsembleConfig &cfg = rule.cfg;

    TierResponse resp;
    resp.config = cfg;
    resp.ruleTolerance = rule.tolerance;

    double budget = resilience_.requestBudgetSeconds > 0.0
                        ? resilience_.requestBudgetSeconds
                        : kInf;
    double elapsed = 0.0;
    double cost = 0.0;
    std::vector<bool> failed_versions(versions_.size(), false);
    bool done = false;

    auto adopt = [&](const serving::VersionResult &r) {
        resp.output = r.output;
        resp.confidence = r.confidence;
        done = true;
    };

    // Race both legs on real threads (deterministic: results are
    // keyed by (payload, attempt), the merge by modeled latency).
    auto race = [&](StageRun &s1, StageRun &s2) {
        if (cfg.primary != cfg.secondary) {
            auto fut = std::async(std::launch::async, [&] {
                return runStage(cfg.secondary, request.payload,
                                budget, kStageSaltStride);
            });
            s1 = runStage(cfg.primary, request.payload, budget, 0);
            s2 = fut.get();
        } else {
            s1 = runStage(cfg.primary, request.payload, budget, 0);
            s2 = runStage(cfg.secondary, request.payload, budget,
                          kStageSaltStride);
        }
    };

    switch (cfg.kind) {
      case PolicyKind::Single: {
        StageRun s = runStage(cfg.primary, request.payload, budget,
                              0);
        appendStageTimings(resp, s, 0.0, false, -1.0);
        tallyStage(resp, s.outcome);
        elapsed = s.outcome.latencySeconds;
        cost = s.outcome.costDollars;
        if (s.outcome.ok)
            adopt(s.outcome.result);
        else
            failed_versions[cfg.primary] = true;
        break;
      }
      case PolicyKind::Sequential: {
        StageRun s1 = runStage(cfg.primary, request.payload, budget,
                               0);
        appendStageTimings(resp, s1, 0.0, false, -1.0);
        tallyStage(resp, s1.outcome);
        elapsed = s1.outcome.latencySeconds;
        cost = s1.outcome.costDollars;
        if (s1.outcome.ok &&
            s1.outcome.result.confidence >=
                cfg.confidenceThreshold) {
            adopt(s1.outcome.result);
            break;
        }
        // Escalate: the primary was unconfident — or dead, which
        // escalates just the same.
        StageRun s2 = runStage(cfg.secondary, request.payload,
                               budget - elapsed, kStageSaltStride);
        appendStageTimings(resp, s2, elapsed, false, -1.0);
        tallyStage(resp, s2.outcome);
        elapsed += s2.outcome.latencySeconds;
        cost += s2.outcome.costDollars;
        if (s2.outcome.ok) {
            adopt(s2.outcome.result);
            resp.escalated = true;
        } else {
            if (!s1.outcome.ok)
                failed_versions[cfg.primary] = true;
            failed_versions[cfg.secondary] = true;
        }
        break;
      }
      case PolicyKind::ConcurrentEt: {
        StageRun s1, s2;
        race(s1, s2);
        double t1 = s1.outcome.latencySeconds;
        double t2 = s2.outcome.latencySeconds;
        if (s1.outcome.ok &&
            s1.outcome.result.confidence >=
                cfg.confidenceThreshold) {
            // Early termination: the confident primary answers and
            // kills the secondary, paying for its partial run.
            appendStageTimings(resp, s1, 0.0, false, -1.0);
            appendStageTimings(resp, s2, 0.0, false, t1);
            tallyStage(resp, s1.outcome);
            tallyStage(resp, s2.outcome);
            elapsed = t1;
            cost = s1.outcome.costDollars + proratedCost(s2.outcome, t1);
            adopt(s1.outcome.result);
            break;
        }
        if (s2.outcome.ok) {
            // The authoritative secondary answers; a still-running
            // (dead) primary leg is cancelled at the response.
            bool prim_alive = s1.outcome.ok;
            appendStageTimings(resp, s1, 0.0, false,
                               prim_alive ? -1.0 : t2);
            appendStageTimings(resp, s2, 0.0, false, -1.0);
            tallyStage(resp, s1.outcome);
            tallyStage(resp, s2.outcome);
            elapsed = prim_alive ? std::max(t1, t2) : t2;
            cost = s2.outcome.costDollars +
                   (prim_alive ? s1.outcome.costDollars
                               : proratedCost(s1.outcome, t2));
            adopt(s2.outcome.result);
            resp.escalated = true;
            break;
        }
        // No usable result from either leg.
        appendStageTimings(resp, s1, 0.0, false, -1.0);
        appendStageTimings(resp, s2, 0.0, false, -1.0);
        tallyStage(resp, s1.outcome);
        tallyStage(resp, s2.outcome);
        elapsed = std::max(t1, t2);
        cost = s1.outcome.costDollars + s2.outcome.costDollars;
        if (!s1.outcome.ok)
            failed_versions[cfg.primary] = true;
        failed_versions[cfg.secondary] = true;
        break;
      }
      case PolicyKind::ConcurrentFo: {
        StageRun s1, s2;
        race(s1, s2);
        double t1 = s1.outcome.latencySeconds;
        double t2 = s2.outcome.latencySeconds;
        appendStageTimings(resp, s1, 0.0, false, -1.0);
        appendStageTimings(resp, s2, 0.0, false, -1.0);
        tallyStage(resp, s1.outcome);
        tallyStage(resp, s2.outcome);
        // Fail-over never cancels: both bills are always paid.
        cost = s1.outcome.costDollars + s2.outcome.costDollars;
        if (s1.outcome.ok &&
            s1.outcome.result.confidence >=
                cfg.confidenceThreshold) {
            elapsed = t1;
            adopt(s1.outcome.result);
        } else if (s2.outcome.ok) {
            elapsed = s1.outcome.ok ? std::max(t1, t2) : t2;
            adopt(s2.outcome.result);
            resp.escalated = true;
        } else {
            elapsed = std::max(t1, t2);
            if (!s1.outcome.ok)
                failed_versions[cfg.primary] = true;
            failed_versions[cfg.secondary] = true;
        }
        break;
      }
    }

    if (!done)
        runFallbackChain(resp, request, elapsed, cost,
                         failed_versions);

    resp.latencySeconds = elapsed;
    resp.costDollars = cost;

    // Insert after execution: only responses the matched rule's
    // ensemble itself served (Ok) are cacheable — a fell-back
    // result is keyed to *this* request's tolerance, not the
    // rule's bound, and a violation must never be replayed.
    if (cache_ != nullptr && resp.status == ServeStatus::Ok) {
        serving::CachedResult entry;
        entry.output = resp.output;
        entry.confidence = resp.confidence;
        entry.tolerance = rule.tolerance;
        cache_->insert(looked.fp_, std::move(entry));
    }

    recordMetrics(request.tier.objective, tier, resp);
    recordStageMetrics(resp, looked.ruleMatchWall_, looked.cacheWall_);
    recordSlo(request, rule, resp);
    if (ctx_.monitor) {
        ctx_.monitor->observeLatency(
            serving::objectiveName(request.tier.objective),
            rule.tolerance, resp.latencySeconds);
        if (resp.violated()) {
            ctx_.monitor->observeViolation(
                serving::objectiveName(request.tier.objective),
                rule.tolerance);
        }
    }
    if (span_ctx.active()) {
        recordTrace(request, resp, looked.ruleMatchWall_,
                    looked.cacheWall_, span_ctx);
    }
    return resp;
}

void
TierService::recordMetrics(serving::Objective objective,
                           const Match &tier,
                           const TierResponse &resp) const
{
    if (!ctx_.metrics || !obs::metricsEnabled())
        return;
    const TierSeries &series = *tier.series;
    const double tolerance = tier.rule->tolerance;
    auto counter = [&](const obs::LazyHandle<obs::Counter> &handle,
                       const char *name,
                       const char *help) -> obs::Counter & {
        return handle.get([&]() -> obs::Counter & {
            return ctx_.metrics->counter(
                name, tierLabels(objective, tolerance), help);
        });
    };
    counter(series.requests, "tt_tier_requests_total",
            "Requests served per tier")
        .inc();
    if (resp.escalated) {
        counter(series.escalations, "tt_tier_escalations_total",
                "Requests escalated to the secondary")
            .inc();
    }
    series.latency
        .get([&]() -> obs::Histogram & {
            return ctx_.metrics->histogram(
                "tt_tier_latency_seconds",
                tierLabels(objective, tolerance), {},
                "Response latency per tier");
        })
        .observe(resp.latencySeconds);
    series.cost
        .get([&]() -> obs::Histogram & {
            return ctx_.metrics->histogram(
                "tt_tier_cost_dollars", tierLabels(objective, tolerance),
                obs::exponentialBounds(1e-6, 10.0, 15),
                "Invocation cost per tier");
        })
        .observe(resp.costDollars);
    if (resp.retries > 0) {
        counter(series.retries, "tt_retries_total",
                "Stage retry attempts per tier")
            .inc(static_cast<double>(resp.retries));
    }
    if (resp.hedges > 0) {
        counter(series.hedges, "tt_hedges_total",
                "Hedged duplicate dispatches per tier")
            .inc(static_cast<double>(resp.hedges));
    }
    if (resp.status == ServeStatus::FellBack) {
        counter(series.fallbacks, "tt_fallbacks_total",
                "Requests served by a fallback version")
            .inc();
    }
    if (resp.violated()) {
        counter(series.violations, "tt_guarantee_violations_total",
                "Requests whose tolerance promise could not be "
                "honored")
            .inc();
    }
}

void
TierService::recordStage(const obs::LazyHandle<obs::Histogram> &handle,
                         const char *stage_name, double seconds) const
{
    handle
        .get([&]() -> obs::Histogram & {
            return obs::stageHistogram(*ctx_.metrics, stage_name);
        })
        .observe(seconds);
}

void
TierService::recordStageMetrics(const TierResponse &resp,
                                double rule_match_wall,
                                double cache_wall) const
{
    if (!ctx_.metrics || !obs::metricsEnabled())
        return;
    const StageSeries &stages = *stageSeries_;
    recordStage(stages.route, obs::stage::kRoute, rule_match_wall);
    if (cache_ != nullptr)
        recordStage(stages.cache, obs::stage::kCache, cache_wall);
    if (resp.servedFromCache)
        return;
    // Execution decomposes by interval coverage: the union of the
    // attempt legs is busy time, the uncovered remainder of the
    // response window is retry backoff, and doubly covered time is
    // hedge overlap (a subset of execute, reported separately).
    std::vector<obs::Interval> legs;
    legs.reserve(resp.stages.size());
    for (const StageTiming &t : resp.stages) {
        legs.push_back(
            {t.startSeconds, t.startSeconds + t.latencySeconds});
    }
    obs::IntervalStats stats =
        obs::intervalStats(std::move(legs));
    recordStage(stages.execute, obs::stage::kExecute,
                stats.unionSeconds);
    recordStage(stages.retryBackoff, obs::stage::kRetryBackoff,
                std::max(0.0, resp.latencySeconds - stats.unionSeconds));
    if (stats.overlapSeconds > 0.0) {
        recordStage(stages.hedgeOverlap, obs::stage::kHedgeOverlap,
                    stats.overlapSeconds);
    }
}

void
TierService::recordSlo(const serving::ServiceRequest &request,
                       const RoutingRule &rule,
                       const TierResponse &resp) const
{
    if (ctx_.slo == nullptr)
        return;
    // One binary budget event per served request: good unless the
    // tolerance promise was explicitly violated (fallbacks honored
    // the promise, so they preserve budget).
    ctx_.slo->record(serving::objectiveName(request.tier.objective),
                     rule.tolerance, !resp.violated());
    // The same event also burns the tenant's own budget, so a noisy
    // neighbor's violations page that tenant's window — not the
    // victims'.
    ctx_.slo->recordTenant(
        serving::tenantMetricLabel(request.tenant),
        !resp.violated());
}

void
TierService::recordTrace(const serving::ServiceRequest &request,
                         TierResponse &resp,
                         double rule_match_wall, double cache_wall,
                         const obs::TraceContext &span_ctx) const
{
    obs::Trace &trace = *span_ctx.trace;
    resp.traceId = trace.traceId();

    std::uint64_t root = span_ctx.parent;
    trace.annotate(root, "objective",
                   serving::objectiveName(request.tier.objective));
    trace.annotate(root, "tolerance",
                   tierLabel(request.tier.tolerance));
    trace.annotate(root, "tier", tierLabel(resp.ruleTolerance));
    trace.annotate(root, "policy",
                   policyKindName(resp.config.kind));
    trace.annotate(root, "escalated",
                   resp.escalated ? "true" : "false");
    // Annotated only for named tenants so single-tenant span trees
    // (and their goldens) are unchanged.
    if (!request.tenant.empty())
        trace.annotate(root, "tenant", request.tenant);
    if (resp.servedFromCache)
        trace.annotate(root, "cached", "true");
    if (resp.status != ServeStatus::Ok) {
        trace.annotate(root, "status",
                       serveStatusName(resp.status));
    }

    // Control-plane work is measured wall clock; it is orders of
    // magnitude below the modeled stage latencies.
    double cursor = span_ctx.offset;
    std::uint64_t match = trace.addSpan("rule_match", cursor,
                                        rule_match_wall, root);
    trace.annotate(match, "clock", "wall");
    cursor += rule_match_wall;
    if (cache_ != nullptr) {
        std::uint64_t look = trace.addSpan("cache_lookup", cursor,
                                           cache_wall, root);
        trace.annotate(look, "clock", "wall");
        trace.annotate(look, "hit",
                       resp.servedFromCache ? "true" : "false");
        cursor += cache_wall;
    }

    // One `execute` span owns the whole tier-chain window; inside
    // it, one `stage:<version>` span per stage run (the attempts
    // sharing a stageOrdinal) and one `attempt`/`hedge` leaf per
    // resilience leg, each stamped with its win/lose outcome.
    if (!resp.servedFromCache && !resp.stages.empty()) {
        std::uint64_t exec = trace.addSpan(
            "execute", cursor, resp.latencySeconds, root);
        std::size_t i = 0;
        while (i < resp.stages.size()) {
            std::size_t ord = resp.stages[i].stageOrdinal;
            double lo = resp.stages[i].startSeconds;
            double hi = lo + resp.stages[i].latencySeconds;
            std::size_t j = i + 1;
            while (j < resp.stages.size() &&
                   resp.stages[j].stageOrdinal == ord) {
                lo = std::min(lo, resp.stages[j].startSeconds);
                hi = std::max(hi,
                              resp.stages[j].startSeconds +
                                  resp.stages[j].latencySeconds);
                ++j;
            }
            const StageTiming &first = resp.stages[i];
            std::uint64_t stage_span = trace.addSpan(
                "stage:" + first.versionName, cursor + lo,
                std::max(0.0, hi - lo), exec);
            if (first.fallback)
                trace.annotate(stage_span, "fallback", "true");
            for (std::size_t k = i; k < j; ++k) {
                const StageTiming &t = resp.stages[k];
                std::uint64_t leaf = trace.addSpan(
                    t.hedge ? "hedge" : "attempt",
                    cursor + t.startSeconds, t.latencySeconds,
                    stage_span);
                trace.annotate(
                    leaf, "attempt",
                    common::strprintf(
                        "%llu", static_cast<unsigned long long>(
                                    t.attempt)));
                trace.annotate(leaf, "win",
                               t.won ? "true" : "false");
                if (t.cancelled)
                    trace.annotate(leaf, "cancelled", "true");
                if (t.failed)
                    trace.annotate(leaf, "failed", "true");
                if (t.timedOut)
                    trace.annotate(leaf, "timed_out", "true");
                if (t.fallback)
                    trace.annotate(leaf, "fallback", "true");
                if (resp.escalated && !t.fallback &&
                    t.startSeconds > 0.0)
                    trace.annotate(leaf, "escalation", "true");
            }
            i = j;
        }
    }

    // The parent covers everything this request added to the
    // timeline: the caller's offset (admission + batch wait), the
    // wall-clock control plane, and the modeled response latency.
    trace.setDuration(root, cursor + resp.latencySeconds);
}

} // namespace toltiers::core
