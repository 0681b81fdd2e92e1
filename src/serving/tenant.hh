/**
 * @file
 * First-class multi-tenancy for the serving path: per-tenant token
 * buckets, weighted-fair (deficit round robin) dispatch, and exact
 * per-tenant accounting.
 *
 * A production tier service is shared by many tenants, and one
 * greedy tenant must not be able to starve the others' tiers or
 * silently void their guarantees ("No DNN Left Behind" motivates
 * exactly this layer). The pieces here are deliberately mechanism,
 * not policy:
 *
 *  - TokenBucket is a classic rate limiter on an *explicit* clock:
 *    every operation takes `now` in seconds, so the serving path
 *    can feed it a wall stopwatch while tests drive logical time
 *    and stay bit-for-bit deterministic.
 *  - TenantPolicy names the tenants and their quotas (admission
 *    rate, burst, and fair-share weight), with a default quota for
 *    tenants it has never heard of — including the anonymous
 *    tenant (the empty id, labelled "anonymous" in metrics).
 *  - TenantGovernor is the enforcement point the front door layers
 *    over its load-shedding gate: admit() charges the tenant's
 *    bucket, enqueue()/dequeue() run a deficit-round-robin queue so
 *    each backlogged tenant drains in proportion to its weight, and
 *    the counters keep the per-tenant conservation identity exact:
 *    submitted = rejected + shed + completed, mirrored into the
 *    registry as tt_tenant_* labelled series.
 *
 * Thread safety: TokenBucket and TenantPolicy are plain values (the
 * caller serializes); TenantGovernor is fully thread-safe.
 */

#ifndef TOLTIERS_SERVING_TENANT_HH
#define TOLTIERS_SERVING_TENANT_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "obs/metrics.hh"

namespace toltiers::serving {

/** The metric/trace label for a tenant id ("" -> "anonymous"). */
std::string tenantMetricLabel(const std::string &tenant);

/**
 * Token-bucket rate limiter on an explicit clock. The bucket holds
 * at most `burst` tokens, refills continuously at `ratePerSecond`,
 * and admission takes one token. All methods take the current time
 * in seconds (any monotone origin); determinism is the caller's
 * clock choice, not this class's problem.
 */
class TokenBucket
{
  public:
    /** An unlimited bucket (every tryTake succeeds). */
    TokenBucket() = default;

    /**
     * @param rate_per_second refill rate; <= 0 means unlimited.
     * @param burst bucket capacity in tokens (clamped up to 1).
     */
    TokenBucket(double rate_per_second, double burst);

    /**
     * Take one token at time `now_seconds`; false when the bucket
     * is empty (the request is over quota). `now_seconds` must be
     * non-decreasing across calls (a regressing clock refills
     * nothing, it never underflows).
     */
    [[nodiscard]] bool tryTake(double now_seconds);

    /** Tokens available at `now_seconds` (burst for unlimited). */
    double tokens(double now_seconds) const;

    /** True when no rate was set (every tryTake succeeds). */
    bool unlimited() const { return rate_ <= 0.0; }

  private:
    /** Accrue refill up to `now_seconds` into tokens_. */
    void refill(double now_seconds);

    double rate_ = 0.0;   //!< Tokens per second; <= 0 = unlimited.
    double burst_ = 1.0;  //!< Capacity in tokens.
    double tokens_ = 1.0; //!< Available now (starts full).
    double last_ = 0.0;   //!< Clock of the last refill.
};

/** One tenant's admission quota and fair-share weight. */
struct TenantQuota
{
    /** Admitted requests per second (token-bucket refill rate);
     * <= 0 means unlimited — admission is then bounded only by the
     * front door's shared capacity gate. */
    double ratePerSecond = 0.0;
    /** Token-bucket capacity: the burst admitted instantly after an
     * idle period (clamped up to 1). */
    double burst = 16.0;
    /** Deficit-round-robin weight: a backlogged tenant drains in
     * proportion to this (clamped up to 0.01). */
    double weight = 1.0;
};

/**
 * The tenant table a front door enforces: named quotas plus the
 * default applied to any tenant not listed — which includes the
 * anonymous tenant (empty id) unless it is listed explicitly.
 */
struct TenantPolicy
{
    /** Quota for tenants absent from `tenants`. */
    TenantQuota defaults;
    /** Per-tenant overrides, keyed by tenant id ("" = anonymous). */
    std::map<std::string, TenantQuota> tenants;

    /** The quota governing `tenant` (defaults when unlisted). */
    const TenantQuota &quotaFor(const std::string &tenant) const;
};

/** Point-in-time accounting for one tenant (sums are exact once
 * traffic quiesces; see obs/metrics.hh on striped counters). */
struct TenantStats
{
    std::string tenant;  //!< Metric label ("anonymous" for "").
    std::uint64_t submitted = 0; //!< Offered to admission.
    std::uint64_t rejected = 0;  //!< Over the tenant's quota.
    std::uint64_t shed = 0;      //!< Lost to the shared capacity gate.
    std::uint64_t completed = 0; //!< Responses produced.
    std::uint64_t violations = 0; //!< Completed in guarantee violation.
    std::size_t queued = 0;      //!< Waiting in the fair queue now.
};

/**
 * Weighted-fair admission governor: token-bucket quota enforcement,
 * a deficit-round-robin work queue, and conservation-checked
 * per-tenant accounting (`submitted = rejected + shed + completed`
 * per tenant, exact after a drain). The front door is the intended
 * caller; see core/front_door.hh for the layering.
 *
 * The DRR queue holds opaque work items, one per request.
 * dequeue() serves the backlogged tenants round robin, each
 * accumulating quantum x weight deficit per visit and paying one
 * unit to release an item — so over any backlogged interval,
 * tenant throughput converges to the weight ratio (weights may be
 * fractional, hence the deficit) and a flooding tenant only ever
 * queues behind itself.
 */
class TenantGovernor
{
  public:
    /**
     * @param policy quota table (copied).
     * @param metrics optional registry for the tt_tenant_* series;
     * must outlive the governor.
     */
    explicit TenantGovernor(const TenantPolicy &policy,
                            obs::Registry *metrics = nullptr);

    TenantGovernor(const TenantGovernor &) = delete;
    TenantGovernor &operator=(const TenantGovernor &) = delete;

    /**
     * Charge one admission against `tenant`'s bucket at time
     * `now_seconds`. Counts the tenant's submission; on false the
     * rejection is also counted (the request is over quota and must
     * not be enqueued).
     */
    [[nodiscard]] bool admit(const std::string &tenant,
                             double now_seconds);

    /** Count one admitted request lost to the shared capacity gate. */
    void countShed(const std::string &tenant);

    /** Count one produced response (and its violation verdict). */
    void countCompleted(const std::string &tenant, bool violation);

    /**
     * Queue one work item for weighted-fair dispatch. The item runs
     * when a dequeue() caller releases and invokes it; the governor
     * never runs work itself.
     */
    void enqueue(const std::string &tenant,
                 std::function<void()> work);

    /**
     * Release the next work item per deficit round robin, or an
     * empty function when every queue is empty. The caller runs the
     * item outside the governor.
     */
    [[nodiscard]] std::function<void()> dequeue();

    /** Work items queued across all tenants right now. */
    std::size_t queuedCount() const;

    /** Per-tenant accounting, sorted by label. */
    std::vector<TenantStats> stats() const;

  private:
    /** Per-tenant bucket, queue, deficit, and tallies. */
    struct State
    {
        TenantQuota quota;
        TokenBucket bucket;
        std::deque<std::function<void()>> queue;
        double deficit = 0.0;
        bool active = false; //!< Present in activeOrder_.
        std::uint64_t submitted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t shed = 0;
        std::uint64_t completed = 0;
        std::uint64_t violations = 0;
        /** Registry handles (null without metrics). */
        obs::Counter *mSubmitted = nullptr;
        obs::Counter *mRejected = nullptr;
        obs::Counter *mShed = nullptr;
        obs::Counter *mCompleted = nullptr;
        obs::Counter *mViolations = nullptr;
        obs::Gauge *mQueued = nullptr;
    };

    /** The tenant's state, created (and its series registered) on
     * first use. */
    State &state(const std::string &tenant) REQUIRES(mu_);

    mutable common::Mutex mu_;
    std::map<std::string, State> tenants_ GUARDED_BY(mu_);
    /** Backlogged tenants in round-robin order. */
    std::deque<std::string> activeOrder_ GUARDED_BY(mu_);
    std::size_t queued_ GUARDED_BY(mu_) = 0;

    TenantPolicy policy_;
    obs::Registry *metrics_ = nullptr;
};

} // namespace toltiers::serving

#endif // TOLTIERS_SERVING_TENANT_HH
