/**
 * @file
 * The Tolerance Tier service front-end.
 *
 * Holds the deployed service versions and the routing rules the
 * generator produced, and serves annotated requests live: a request
 * picks its tier via the `Tolerance`/`Objective` headers, the
 * matching rule's ensemble executes against the real service
 * versions, and the response reports the composed latency and cost
 * exactly as the policy semantics define them.
 *
 * The serving path is fault-tolerant (setResilience): every stage
 * runs through the deadline / retry-with-backoff / hedging executor
 * in core/resilience.hh, concurrent-policy legs and hedge
 * duplicates run on real threads, and a stage that exhausts its
 * attempts degrades gracefully — the service falls back to the
 * cheapest version whose recorded worst-case error degradation
 * (setVersionProfiles) still satisfies the request's tolerance, or
 * reports an explicit guarantee-violation status when none does.
 * Responses never lie: status says whether the tolerance promise
 * was honored, and by which path.
 *
 * The service is instrumented end to end (attachObservability):
 * per-tier request/escalation counters, latency/cost histograms,
 * and the fault-path counters (tt_retries_total, tt_hedges_total,
 * tt_fallbacks_total, tt_guarantee_violations_total) land in a
 * metrics registry; each request's wall time is decomposed into
 * the per-stage tt_stage_seconds histograms (route, cache,
 * execute, retry-backoff, hedge-overlap — see obs/attribution.hh);
 * latencies feed the live GuaranteeMonitor, explicit violations
 * are reported to it the moment they are served, and every served
 * request spends or preserves its tier's error budget in the SLO
 * burn-rate tracker. All telemetry is optional and adds nothing
 * when no context is attached. Registry handles are resolved once —
 * per (objective, tier), per stage, and per tenant on first sight —
 * so a served request only updates cached handles; the attached
 * registry must outlive the service.
 *
 * Tracing is causal: handle(request, TraceContext) records its
 * spans *into the caller's trace* under the caller's root span —
 * the front door propagates one context from admission through
 * batching into the tier chain, so a request yields one connected
 * span tree (rule_match and cache_lookup wall-clock spans, then an
 * `execute` span owning one `stage:<version>` span per ensemble or
 * fallback stage, each owning one `attempt`/`hedge` leaf per
 * resilience leg with its win/lose outcome). handle(request) with
 * no context is the originator form: it starts a trace itself
 * (subject to the tracer's sampling) and finishes it.
 *
 * The serving path can be fronted by a result cache (setCache):
 * handle() looks the request's fingerprint up before executing the
 * tier chain and serves a hit at zero modeled latency and cost;
 * Ok responses are inserted after execution, keyed by the matched
 * rule's tolerance, so a cached answer is only ever reused by
 * requests whose tolerance is at least as loose as the bound the
 * answer was produced under (see serving/cache.hh for the
 * tolerance-safety contract). With no cache attached the path is
 * byte-identical to the uncached service.
 */

#ifndef TOLTIERS_CORE_TIER_SERVICE_HH
#define TOLTIERS_CORE_TIER_SERVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "core/resilience.hh"
#include "core/rule_generator.hh"
#include "obs/obs.hh"
#include "serving/request.hh"
#include "serving/service_version.hh"

namespace toltiers::serving {
class ResultCache;
} // namespace toltiers::serving

namespace toltiers::core {

/** Timing of one executed (or cancelled) ensemble stage attempt. */
struct StageTiming
{
    std::size_t version = 0;     //!< Index into the version ladder.
    std::string versionName;     //!< Name of that version.
    double startSeconds = 0.0;   //!< Offset within the request.
    double latencySeconds = 0.0; //!< Busy time of the stage.
    bool cancelled = false;      //!< Raced loser killed early.
    std::uint64_t attempt = 0;   //!< Attempt id within the request.
    bool hedge = false;          //!< Hedged duplicate dispatch.
    bool failed = false;         //!< Backend error on this attempt.
    bool timedOut = false;       //!< Ran past the deadline cap.
    bool fallback = false;       //!< Graceful-degradation stage.
    bool won = false;            //!< Produced its stage's result.
    /** Which stage run of the request this attempt belongs to
     * (rule stages first, then fallback stages, in run order) —
     * the grouping the trace's stage spans are built from. */
    std::size_t stageOrdinal = 0;
};

/** How a response's tolerance promise was (or was not) honored. */
enum class ServeStatus
{
    Ok,                 //!< Served by the matched rule's ensemble.
    FellBack,           //!< Served by a tolerance-safe fallback.
    GuaranteeViolation, //!< No satisfying version could answer.
};

/** Printable status name ("ok" / "fell-back" / "violation"). */
const char *serveStatusName(ServeStatus status);

/** Response of the tier service to one annotated request. */
struct TierResponse
{
    std::string output;        //!< The chosen result payload.
    double latencySeconds = 0.0; //!< Composed response latency.
    double costDollars = 0.0;    //!< Composed invocation cost.
    double confidence = 0.0;   //!< Confidence of the chosen result.
    bool escalated = false;    //!< Secondary result was used.
    EnsembleConfig config;     //!< The ensemble that served it.
    double ruleTolerance = 0.0; //!< Tolerance of the matched rule.
    /** Trace id of the request's span timeline (0 when tracing is
     * off) — callers correlate responses with trace records by it. */
    std::uint64_t traceId = 0;
    /** Per-stage timing breakdown in execution order. Sequential
     * stages abut; raced stages share start offset 0. */
    std::vector<StageTiming> stages;

    ServeStatus status = ServeStatus::Ok;
    std::size_t retries = 0;  //!< Retry attempts across all stages.
    std::size_t hedges = 0;   //!< Hedge legs dispatched.
    std::size_t timeouts = 0; //!< Attempts that outlived a deadline.
    std::size_t failures = 0; //!< Attempts that errored.
    /** Version that served the request when status == FellBack. */
    std::size_t fallbackVersion = 0;
    /** Human-readable detail for non-Ok statuses. */
    std::string statusNote;
    /** True when the result came from the attached result cache
     * (no tier-chain execution; zero modeled latency and cost). */
    bool servedFromCache = false;

    bool violated() const
    {
        return status == ServeStatus::GuaranteeViolation;
    }
};

/** The deployed tier service. */
class TierService
{
  public:
    /**
     * @param versions live service versions, ladder order (fastest
     * first); all bound to the same workload. Referents must outlive
     * the service.
     */
    explicit TierService(
        std::vector<const serving::ServiceVersion *> versions);

    /** Install the rule table for an objective (sorted by tolerance). */
    void setRules(serving::Objective objective,
                  std::vector<RoutingRule> rules);

    /** Install the fault-tolerance policy for the serving path. */
    void setResilience(const ResiliencePolicy &policy);

    /** The installed fault-tolerance policy (defaults apply). */
    const ResiliencePolicy &resilience() const
    {
        return resilience_;
    }

    /**
     * Front the serving path with a result cache (nullptr detaches
     * it). The cache must outlive the service; it may be shared by
     * several services only if their payload indices identify the
     * same inputs. See the file comment for the hit/insert
     * semantics.
     */
    void setCache(serving::ResultCache *cache) { cache_ = cache; }

    /** The attached result cache, or nullptr. */
    serving::ResultCache *cache() const { return cache_; }

    /**
     * Install per-version worst-case profiles (from the rule
     * generator's Single candidates) — the table fallback selection
     * consults. Without profiles, the reference (most accurate)
     * version is the only known-safe fallback.
     */
    void setVersionProfiles(std::vector<VersionProfile> profiles);

    /**
     * Attach telemetry sinks (any pointer may be null). Guarantees
     * for already-installed rules are registered with the monitor
     * immediately; later setRules calls register theirs too.
     * @param kind how the monitor interprets tolerances against
     * observed errors (must match the rule generator's mode).
     */
    void attachObservability(
        const obs::ObsContext &ctx,
        obs::DegradationKind kind = obs::DegradationKind::Relative);

    /**
     * The rule serving a requested tolerance: the largest rule
     * tolerance that does not exceed it. Requests tighter than every
     * rule (including tolerance 0) are served by the most accurate
     * single version. fatal() if no rules are installed for the
     * objective.
     */
    const RoutingRule &ruleFor(double tolerance,
                               serving::Objective objective) const;

    /**
     * Serve one annotated request live. Originator form: when a
     * tracer is attached and sampling selects this request, starts
     * a trace, records the request's span tree, and finishes it.
     */
    TierResponse handle(const serving::ServiceRequest &request) const;

    /**
     * Serve one request, recording spans into the caller's trace
     * under `span_ctx.parent` starting at `span_ctx.offset` (the
     * propagated-context form the front door uses; see
     * obs::TraceContext). An inactive context serves without
     * tracing. The caller owns and finishes the trace; this method
     * sets the parent span's duration to cover the work it added.
     */
    TierResponse handle(const serving::ServiceRequest &request,
                        const obs::TraceContext &span_ctx) const;

    /** Number of deployed service versions. */
    std::size_t versionCount() const { return versions_.size(); }

  private:
    struct StageRun
    {
        StageOutcome outcome;
        std::size_t version = 0;
    };

    /** The tt_tier_* / fault-path series of one (objective, tier),
     * each resolved the first time it records. */
    struct TierSeries
    {
        obs::LazyHandle<obs::Counter> requests;
        obs::LazyHandle<obs::Counter> escalations;
        obs::LazyHandle<obs::Counter> retries;
        obs::LazyHandle<obs::Counter> hedges;
        obs::LazyHandle<obs::Counter> fallbacks;
        obs::LazyHandle<obs::Counter> violations;
        obs::LazyHandle<obs::Histogram> latency;
        obs::LazyHandle<obs::Histogram> cost;
    };

    /** The rule table of one objective with its tiers' series. */
    struct Tiers
    {
        std::vector<RoutingRule> rules; //!< Sorted by tolerance.
        /** One per rule, then one for the implicit reference tier. */
        std::unique_ptr<TierSeries[]> series;
    };

    /** A matched rule and the series of its tier. */
    struct Match
    {
        const RoutingRule *rule = nullptr;
        const TierSeries *series = nullptr;
    };

    /** Per-tenant cache attribution series: one node of an
     * append-only bucket list, so lookups need no lock. */
    struct TenantSeries
    {
        std::string tenant;
        obs::LazyHandle<obs::Counter> cacheHits;
        obs::LazyHandle<obs::Counter> cacheMisses;
        const TenantSeries *next = nullptr;
    };
    static constexpr std::size_t kTenantBuckets = 64;

    /** The tt_stage_seconds handles this service records into. */
    struct StageSeries
    {
        obs::LazyHandle<obs::Histogram> route;
        obs::LazyHandle<obs::Histogram> cache;
        obs::LazyHandle<obs::Histogram> execute;
        obs::LazyHandle<obs::Histogram> retryBackoff;
        obs::LazyHandle<obs::Histogram> hedgeOverlap;
    };

    /** ruleFor(), plus the matched tier's series. */
    Match match(double tolerance, serving::Objective objective) const;
    /** The series of `tenant`, created on its first request. */
    const TenantSeries &tenantSeries(const std::string &tenant) const;
    /** Fresh (unresolved) series for every tier, stage and tenant —
     * run whenever the rules or the registry change. */
    void resetSeries();

    StageRun runStage(std::size_t version, std::size_t payload,
                      double budget_left,
                      std::uint64_t salt) const;
    void appendStageTimings(TierResponse &resp,
                            const StageRun &run, double offset,
                            bool fallback, double cancel_at) const;
    void tallyStage(TierResponse &resp,
                    const StageOutcome &outcome) const;
    bool runFallbackChain(TierResponse &resp,
                          const serving::ServiceRequest &request,
                          double &elapsed, double &cost,
                          std::vector<bool> &failed_versions) const;

    void installGuarantees(serving::Objective objective,
                           const std::vector<RoutingRule> &rules);
    void registerRuleSeries(serving::Objective objective,
                            const std::vector<RoutingRule> &rules);
    void recordMetrics(serving::Objective objective,
                       const Match &tier,
                       const TierResponse &resp) const;
    void recordStage(const obs::LazyHandle<obs::Histogram> &handle,
                     const char *stage_name, double seconds) const;
    void recordStageMetrics(const TierResponse &resp,
                            double rule_match_wall,
                            double cache_wall) const;
    void recordSlo(const serving::ServiceRequest &request,
                   const RoutingRule &rule,
                   const TierResponse &resp) const;
    void recordTrace(const serving::ServiceRequest &request,
                     TierResponse &resp, double rule_match_wall,
                     double cache_wall,
                     const obs::TraceContext &span_ctx) const;

    std::vector<const serving::ServiceVersion *> versions_;
    std::map<serving::Objective, Tiers> rules_;
    RoutingRule referenceRule_; //!< Single(most accurate), tol 0.
    std::unique_ptr<StageSeries> stageSeries_;
    /** Heads of the tenant bucket lists; read without a lock. */
    mutable std::array<std::atomic<const TenantSeries *>,
                       kTenantBuckets>
        tenantBuckets_{};
    mutable common::Mutex tenantMu_; //!< Serializes tenant inserts.
    mutable std::vector<std::unique_ptr<TenantSeries>>
        tenantNodes_ GUARDED_BY(tenantMu_);
    serving::ResultCache *cache_ = nullptr;
    ResiliencePolicy resilience_;
    std::vector<VersionProfile> profiles_;
    obs::ObsContext ctx_;       //!< All-null until attached.
    obs::DegradationKind degradationKind_ =
        obs::DegradationKind::Relative;
};

} // namespace toltiers::core

#endif // TOLTIERS_CORE_TIER_SERVICE_HH
