/**
 * @file
 * Concurrent front door for the tier service.
 *
 * TierService::handle() serves one request synchronously on the
 * calling thread. The front door turns that into a concurrent
 * serving surface: submit() admits a request into a bounded queue
 * and dispatches it onto the shared work-stealing pool, poll() or
 * wait() retrieves the finished TierResponse by ticket. Admission
 * is load-shedding, not blocking — when `queueCapacity` requests
 * are already in flight, submit() rejects immediately (a serving
 * system sheds at the door; it does not build an unbounded queue).
 * submitBatch() admits a whole batch and executes it as one pool
 * task — the dispatch surface the adaptive micro-batcher
 * (serving/batcher.hh) feeds, reporting per-batch wall latency
 * back through its completion hook for AIMD batch sizing.
 *
 * Accounting is conservation-checked: every submitted request is
 * exactly one of rejected / completed, completed responses split
 * exactly into ok / fell-back / violation, and a violation is
 * never silently dropped — it is counted the moment the response
 * is produced (not when the caller collects it), mirrored into the
 * registry's tt_frontdoor_* counters when metrics are attached,
 * and still delivered to the caller through poll()/wait(). The hot
 * tallies are obs::Counter instances, which are striped across
 * cache-line-padded atomics, so eight clients hammering the door
 * do not serialize on one counter line.
 *
 * With a TenantPolicy attached the door is also the multi-tenant
 * enforcement point (serving/tenant.hh): each request is first
 * charged against its tenant's token bucket (over-quota requests
 * are rejected before the shared gate), then claims a capacity
 * slot, then queues in the governor's deficit-round-robin queue —
 * a bounded dispatch window drains that queue onto the pool in
 * weight proportion, so a flooding tenant only ever waits behind
 * itself. Per-tenant accounting stays exact alongside the global
 * identity: submitted = rejected + shed + completed per tenant,
 * mirrored as tt_tenant_* labelled series. Without a policy the
 * door behaves exactly as before.
 *
 * The door is also the trace originator: with a Tracer attached,
 * each sampled request gets one trace whose root `request` span is
 * started here, an `admission` span covering the measured wall time
 * between admission and pool pickup (also recorded into
 * tt_frontdoor_queue_wait_seconds and the admission stage
 * histogram), a `batch_wait` span when the request crossed the
 * adaptive batcher, and a TraceContext handed to
 * TierService::handle so the tier chain's spans nest under the same
 * root — one connected span tree per request, front door to
 * resilience leg.
 *
 * Thread safety: every method may be called from any thread.
 * handle() itself is const over immutable service state and its
 * telemetry sinks are thread-safe, so requests execute genuinely
 * in parallel.
 */

#ifndef TOLTIERS_CORE_FRONT_DOOR_HH
#define TOLTIERS_CORE_FRONT_DOOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.hh"
#include "core/tier_service.hh"
#include "exec/pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serving/tenant.hh"

namespace toltiers::core {

/** Front-door construction parameters. */
struct FrontDoorConfig
{
    /** Max requests admitted but not yet completed; submits beyond
     * it are rejected. */
    std::size_t queueCapacity = 1024;
    /** Pool to serve on; nullptr means exec::globalPool(). */
    exec::ThreadPool *pool = nullptr;
    /** Optional registry for the tt_frontdoor_* counters. */
    obs::Registry *metrics = nullptr;
    /** Optional tracer: the door originates one trace per sampled
     * request and propagates its context into the tier chain. */
    obs::Tracer *tracer = nullptr;
    /** Optional tenant table: when set, the door enforces
     * weighted-fair multi-tenant admission (see the file comment).
     * The policy is copied; nullptr keeps the single-tenant path
     * byte-identical to previous behavior. */
    const serving::TenantPolicy *tenantPolicy = nullptr;
    /** Max fair-queue items dispatched onto the pool at once when a
     * tenant policy is active (the DRR dispatch window); 0 picks
     * max(2 x pool threads, 2). A small window keeps dequeue order
     * — and therefore weighted fairness — tight under overload. */
    std::size_t dispatchWindow = 0;
};

/** Point-in-time front-door accounting (sums are exact once the
 * traffic quiesces; see obs/metrics.hh on striped counters). */
struct FrontDoorStats
{
    std::uint64_t submitted = 0; //!< Accepted + rejected.
    std::uint64_t rejected = 0;  //!< Shed at the door (queue full).
    std::uint64_t completed = 0; //!< Responses produced.
    std::uint64_t ok = 0;        //!< Served by the matched ensemble.
    std::uint64_t fellBack = 0;  //!< Served by a safe fallback.
    std::uint64_t violations = 0; //!< Explicit guarantee violations.
    std::uint64_t collected = 0; //!< Responses handed to callers.
    std::uint64_t batches = 0;   //!< submitBatch() pool tasks run.
};

/** Concurrent submit()/poll() surface over one TierService. */
class TierFrontDoor
{
  public:
    /** Ticket identifying one admitted request; 0 is never issued. */
    using Ticket = std::uint64_t;
    static constexpr Ticket kRejected = 0;

    /** The service must outlive the front door. */
    explicit TierFrontDoor(const TierService &service,
                           FrontDoorConfig cfg = FrontDoorConfig());

    /** Drains in-flight requests before returning. */
    ~TierFrontDoor();

    TierFrontDoor(const TierFrontDoor &) = delete;
    TierFrontDoor &operator=(const TierFrontDoor &) = delete;

    /**
     * Admit one request. Returns its ticket, or kRejected when the
     * bounded queue is full (the request was not enqueued).
     */
    [[nodiscard]] Ticket submit(serving::ServiceRequest request);

    /**
     * Completion hook for one submitAsync request: invoked exactly
     * once, on the serving pool thread, the moment the response is
     * produced and accounted.
     */
    using Completion = std::function<void(const TierResponse &)>;

    /**
     * Admit one request and deliver its response through `done`
     * instead of a ticket — the push-style surface the network
     * front end (net::TierServer) completes responses from, so a
     * connection handler never parks a thread per in-flight
     * request. Admission, accounting, tracing, and metrics are
     * identical to submit(); a delivered response counts as
     * collected. Returns false when the bounded queue shed the
     * request (`done` is not invoked). `done` must not throw and
     * must not block on work that needs this door's pool. On a
     * worker-less pool (exec::ThreadPool(0/1)) the request is
     * served — and `done` invoked — inline on the calling thread,
     * since a push-style caller never waits (and so never helps).
     */
    [[nodiscard]] bool submitAsync(serving::ServiceRequest request,
                                   Completion done);

    /**
     * Completion hook for one batch: invoked exactly once with the
     * number of requests executed and the batch's wall-clock
     * seconds (the AIMD feedback the adaptive batcher consumes).
     */
    using BatchDone =
        std::function<void(std::size_t executed,
                           double wall_seconds)>;

    /**
     * Admit a batch of requests and execute all admitted ones as
     * ONE pool task, in order — amortizing per-task dispatch
     * overhead the way Clipper's batching layer does. Admission is
     * still per request: each either gets a ticket or kRejected
     * when the bounded queue is full, so a batch can be partially
     * shed. The returned tickets line up with the batch by index
     * and behave exactly like submit() tickets (poll/wait/drain).
     * `done`, if given, fires after the last admitted request
     * completes — inline when the whole batch was shed.
     */
    [[nodiscard]] std::vector<Ticket>
    submitBatch(std::vector<serving::ServiceRequest> batch,
                BatchDone done = nullptr);

    /** True once the ticket's response is ready to collect. */
    bool ready(Ticket ticket) const;

    /**
     * Collect a finished response without blocking. Returns false
     * while the request is still in flight. A collected ticket is
     * retired; collecting it again is a caller bug (panics).
     */
    [[nodiscard]] bool poll(Ticket ticket, TierResponse &out);

    /** Block until the ticket's response is ready and collect it. */
    TierResponse wait(Ticket ticket);

    /** Block until every admitted request has completed. */
    void drain();

    /** In-flight requests (admitted, not yet completed). */
    std::size_t inFlight() const;

    /** Point-in-time accounting snapshot. */
    FrontDoorStats stats() const;

    /** The bounded-admission capacity this door sheds beyond. */
    std::size_t queueCapacity() const { return capacity_; }

    /** True when a tenant policy is enforced at this door. */
    bool fairTenancy() const { return governor_ != nullptr; }

    /** Per-tenant accounting rows (sorted by label; empty without a
     * tenant policy). Each row satisfies the conservation identity
     * `submitted = rejected + shed + completed` once traffic
     * quiesces. */
    std::vector<serving::TenantStats> tenantStats() const;

  private:
    struct Slot
    {
        std::mutex mu;
        std::condition_variable cv;
        bool ready = false;
        TierResponse response;
    };

    /** Count one submission, charge the tenant's quota (when a
     * policy is active), and claim a capacity slot; false means the
     * request was rejected or shed (and counted so, globally and
     * per tenant). */
    bool claimCapacity(const serving::ServiceRequest &request);
    /** Count + admit one request: claims a capacity slot and
     * registers a ticket, or returns kRejected (shed). */
    Ticket admit(const serving::ServiceRequest &request,
                 std::shared_ptr<Slot> &slot_out);
    /** Hand one serve task to the pool — directly, or through the
     * tenant governor's fair queue when a policy is active. With a
     * worker-less pool, `inline_when_workerless` runs the task on
     * the calling thread (submitAsync semantics); fair-queued work
     * always runs inline on a worker-less pool. */
    void dispatchOrQueue(const std::string &tenant, std::size_t cost,
                         std::function<void()> work,
                         bool inline_when_workerless);
    /** Drain the fair queue onto the pool up to the dispatch
     * window; each dispatched item re-pumps on completion. */
    void pump();
    /** Serve one admitted request on a pool thread: record the
     * measured queue wait (admission stage), then run the tier
     * chain — under `trace`'s root span when the request was
     * sampled (the trace is finished here). */
    TierResponse
    serveAdmitted(const serving::ServiceRequest &request,
                  const std::shared_ptr<obs::Trace> &trace,
                  double queue_wait) const;
    std::shared_ptr<Slot> findSlot(Ticket ticket) const;
    std::shared_ptr<Slot> takeSlot(Ticket ticket);
    /** Outcome accounting at production time (see file comment);
     * `tenant` attributes the completion when a policy is active. */
    void account(const TierResponse &response,
                 const std::string &tenant);
    /** Release the request's capacity slot and wake drain(). */
    void finishOne();
    void complete(const std::shared_ptr<Slot> &slot,
                  TierResponse response, const std::string &tenant);

    const TierService &service_;
    exec::ThreadPool &pool_;
    std::size_t capacity_;

    /** Weighted-fair admission (null without a tenant policy). */
    std::unique_ptr<serving::TenantGovernor> governor_;
    std::size_t window_ = 2; //!< DRR dispatch window.
    std::atomic<std::size_t> dispatched_{0}; //!< Window occupancy.
    /** Pump-dispatched pool tasks still holding `this`. A task's
     * request finishes (finishOne) before its trailing
     * `dispatched_--; pump()` runs, so drain() returning does NOT
     * mean pump code stopped touching the door — the destructor
     * must also wait for this to hit zero before the governor (and
     * the rest of the door) can be torn down. */
    std::atomic<std::size_t> pumpBusy_{0};
    common::Stopwatch clock_; //!< Token-bucket refill clock.

    mutable std::mutex mapMu_;
    std::unordered_map<Ticket, std::shared_ptr<Slot>> slots_;
    Ticket nextTicket_ = 1; //!< Guarded by mapMu_.

    std::atomic<std::size_t> inFlight_{0};
    mutable std::mutex drainMu_;
    std::condition_variable drainCv_;

    // Striped hot tallies (see the file comment); the mirrored
    // ones export as the tt_frontdoor_* series when metrics are
    // attached.
    obs::MirroredCounter submitted_;
    obs::MirroredCounter rejected_;
    obs::MirroredCounter completed_;
    obs::Counter ok_;
    obs::Counter fellBack_;
    obs::MirroredCounter violations_;
    obs::Counter collected_;
    obs::MirroredCounter batches_;

    obs::Registry *metrics_ = nullptr;
    obs::Tracer *tracer_ = nullptr;

    // Registry handles: the queue-wait histogram is resolved at
    // construction (null without metrics), the stage histograms on
    // their first sample.
    obs::Histogram *mQueueWait_ = nullptr;
    obs::LazyHandle<obs::Histogram> stageAdmission_;
    obs::LazyHandle<obs::Histogram> stageBatchWait_;
};

} // namespace toltiers::core

#endif // TOLTIERS_CORE_FRONT_DOOR_HH
