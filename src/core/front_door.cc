#include "core/front_door.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "exec/parallel.hh"
#include "obs/attribution.hh"

namespace toltiers::core {

using common::panic;

TierFrontDoor::TierFrontDoor(const TierService &service,
                             FrontDoorConfig cfg)
    : service_(service),
      pool_(cfg.pool != nullptr ? *cfg.pool : exec::globalPool()),
      capacity_(cfg.queueCapacity), metrics_(cfg.metrics),
      tracer_(cfg.tracer)
{
    TT_ASSERT(capacity_ > 0, "front door needs a positive capacity");
    if (cfg.tenantPolicy != nullptr) {
        governor_ = std::make_unique<serving::TenantGovernor>(
            *cfg.tenantPolicy, metrics_);
        // A small window keeps dequeue order — and therefore
        // weighted fairness — tight under overload.
        window_ = std::max<std::size_t>(2 * pool_.threadCount(), 2);
    }
    if (metrics_ != nullptr) {
        // Pre-register the series so an idle door exports zeros.
        mQueueWait_ = &metrics_->histogram(
            "tt_frontdoor_queue_wait_seconds", {},
            obs::exponentialBounds(1e-7, 1.0, 15),
            "Seconds between admission and pool pickup");
        submitted_.exported =
            &metrics_->counter("tt_frontdoor_submitted_total", {},
                               "Requests offered to the front door");
        rejected_.exported = &metrics_->counter(
            "tt_frontdoor_rejected_total", {},
            "Requests shed at the door (queue full)");
        completed_.exported = &metrics_->counter(
            "tt_frontdoor_completed_total", {}, "Responses produced");
        violations_.exported = &metrics_->counter(
            "tt_frontdoor_violations_total", {},
            "Completed responses that reported a guarantee "
            "violation");
    }
}

TierFrontDoor::~TierFrontDoor()
{
    // finishOne() is every path's last touch of the door, so once
    // drain() returns no pool task still uses it.
    drain();
}

bool
TierFrontDoor::claimCapacity(const serving::ServiceRequest &request)
{
    submitted_.inc();

    // Tenant quota first: an over-quota request is rejected before
    // it can contend for the shared capacity gate, so one tenant's
    // burst cannot consume another's slots. The governor counts the
    // tenant's submission (and rejection) itself; globally a quota
    // reject is a reject, keeping submitted = rejected + completed
    // exact.
    if (governor_ != nullptr &&
        !governor_->admit(request.tenant, clock_.seconds())) {
        rejected_.inc();
        return false;
    }

    // Bounded admission: claim a queue slot or shed. The claim is
    // optimistic (fetch_add then check) so concurrent submitters
    // never race past the capacity.
    std::size_t claimed =
        inFlight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (claimed > capacity_) {
        inFlight_.fetch_sub(1, std::memory_order_acq_rel);
        rejected_.inc();
        if (governor_ != nullptr)
            governor_->countShed(request.tenant);
        return false;
    }
    return true;
}

template <typename Deliver>
bool
TierFrontDoor::admitAndServe(serving::ServiceRequest request,
                             Deliver deliver,
                             bool inline_when_workerless)
{
    if (!claimCapacity(request))
        return false;

    TierResponse hit;
    Pending pending;
    if (lookupAtAdmission(request, hit, pending)) {
        account(hit, request.tenant);
        deliver(std::move(hit));
        finishOne();
        return true;
    }
    // The pool task must stay copyable (exec::Task is a
    // std::function), hence the shared_ptr trace carrier inside
    // Pending. It serves, accounts and delivers; whoever runs it
    // calls finishOne() once it is done with the door.
    std::string tenant = request.tenant;
    pending.request = std::move(request);
    auto serve = [this, pending = std::move(pending),
                  deliver = std::move(deliver)]() mutable {
        TierResponse response = executePending(pending);
        account(response, pending.request.tenant);
        deliver(std::move(response));
    };
    if (governor_ != nullptr) {
        governor_->enqueue(tenant, std::move(serve));
        pump();
    } else if (inline_when_workerless && pool_.threadCount() == 0) {
        // A worker-less pool (exec::ThreadPool(0/1)) only runs
        // tasks when someone waits on them — and the push-style
        // caller never waits, so its requests would park forever.
        // Serve inline on the submitter's thread instead (pump()
        // does the same for fair-queued work): that is exactly the
        // pool's serial semantics, just without requiring a helper.
        serve();
        finishOne();
    } else {
        pool_.submit([this, serve = std::move(serve)]() mutable {
            serve();
            finishOne();
        });
    }
    return true;
}

void
TierFrontDoor::pump()
{
    for (;;) {
        // Claim a window slot; the window bounds how much fair-queue
        // order the pool's own scheduling can scramble.
        std::size_t cur =
            dispatched_.load(std::memory_order_acquire);
        if (cur >= window_)
            return;
        if (!dispatched_.compare_exchange_weak(
                cur, cur + 1, std::memory_order_acq_rel))
            continue;

        std::function<void()> work = governor_->dequeue();
        if (!work) {
            dispatched_.fetch_sub(1, std::memory_order_acq_rel);
            // Re-check: an enqueue may have landed between our
            // empty dequeue and the slot release, and that enqueuer
            // may have seen a full window. Loop again so its item
            // is never stranded.
            if (governor_->queuedCount() == 0)
                return;
            continue;
        }
        if (pool_.threadCount() == 0) {
            // Worker-less pool: run inline (the push-style serving
            // semantics; see submitAsync) and keep draining. This
            // loop runs inside the submitter's own call, so it may
            // go on after the item's finishOne().
            work();
            dispatched_.fetch_sub(1, std::memory_order_acq_rel);
            finishOne();
            continue;
        }
        pool_.submit([this, work = std::move(work)] {
            work();
            dispatched_.fetch_sub(1, std::memory_order_acq_rel);
            pump();
            // Last touch of the door: after this, drain() — and so
            // the destructor — may return.
            finishOne();
        });
    }
}

TierFrontDoor::Ticket
TierFrontDoor::submit(serving::ServiceRequest request)
{
    auto slot = std::make_shared<Slot>();
    auto fill = [slot](TierResponse &&response) {
        {
            std::lock_guard<std::mutex> lock(slot->mu);
            slot->response = std::move(response);
            slot->ready = true;
        }
        slot->cv.notify_all();
    };
    if (!admitAndServe(std::move(request), std::move(fill),
                       /*inline_when_workerless=*/false))
        return kRejected;
    // The slot may already hold the response (a cache hit, or a
    // pool task that beat us here); the ticket collects it either
    // way.
    std::lock_guard<std::mutex> lock(mapMu_);
    Ticket ticket = nextTicket_++;
    slots_.emplace(ticket, std::move(slot));
    return ticket;
}

bool
TierFrontDoor::submitAsync(serving::ServiceRequest request,
                           Completion done)
{
    TT_ASSERT(done != nullptr,
              "submitAsync needs a completion hook");
    // The hook is this request's collector: it receives the
    // produced-and-accounted response exactly once, before the
    // capacity slot frees (so drain() still covers delivery).
    return admitAndServe(
        std::move(request),
        [this, done = std::move(done)](TierResponse &&response) {
            done(response);
            collected_.inc();
        },
        /*inline_when_workerless=*/true);
}

bool
TierFrontDoor::lookupAtAdmission(const serving::ServiceRequest &request,
                                 TierResponse &hit, Pending &pending)
{
    // One sampling decision per request, taken here so a hit's
    // spans can be recorded inline.
    obs::Tracer *tracer = originTracer();
    obs::TraceContext span_ctx;
    if (tracer != nullptr && tracer->shouldSample()) {
        pending.trace = std::make_shared<obs::Trace>(tracer->startTrace());
        pending.root = pending.trace->addSpan("request", 0.0, 0.0);
        span_ctx = {pending.trace.get(), pending.root, 0.0};
    }
    pending.waited = pending.queued.seconds();
    // A hit's service spans follow the door's (added below, once
    // the lookup has hit); a miss records no span here.
    if (span_ctx.active() && tracer_ != nullptr)
        span_ctx.offset = pending.waited;
    if (!service_.lookup(request, span_ctx, hit, pending.looked)) {
        pending.queued = common::Stopwatch();
        return false;
    }
    recordWait(pending.waited);
    if (pending.trace) {
        if (tracer_ != nullptr)
            addAdmissionSpan(*pending.trace, pending.root,
                             pending.waited);
        tracer->finish(std::move(*pending.trace));
    }
    return true;
}

TierResponse
TierFrontDoor::executePending(Pending &pending) const
{
    double wait = pending.waited + pending.queued.seconds();
    recordWait(wait);
    if (!pending.trace) {
        return service_.execute(pending.request, pending.looked,
                                obs::TraceContext{});
    }
    double offset = 0.0;
    if (tracer_ != nullptr) {
        addAdmissionSpan(*pending.trace, pending.root, wait);
        offset = wait;
    }
    TierResponse resp = service_.execute(
        pending.request, pending.looked,
        {pending.trace.get(), pending.root, offset});
    originTracer()->finish(std::move(*pending.trace));
    return resp;
}

void
TierFrontDoor::recordWait(double queue_wait) const
{
    if (metrics_ == nullptr || !obs::metricsEnabled())
        return;
    mQueueWait_->observe(queue_wait);
    stageAdmission_
        .get([&]() -> obs::Histogram & {
            return obs::stageHistogram(*metrics_,
                                       obs::stage::kAdmission);
        })
        .observe(queue_wait);
}

void
TierFrontDoor::addAdmissionSpan(obs::Trace &trace, std::uint64_t root,
                                double queue_wait)
{
    std::uint64_t adm =
        trace.addSpan("admission", 0.0, queue_wait, root);
    trace.annotate(adm, "clock", "wall");
}

void
TierFrontDoor::account(const TierResponse &response,
                       const std::string &tenant)
{
    // Account the outcome when the response is *produced*: a
    // violation is recorded even if no caller ever collects the
    // ticket.
    completed_.inc();
    if (governor_ != nullptr)
        governor_->countCompleted(tenant, response.violated());
    switch (response.status) {
      case ServeStatus::Ok:
        ok_.inc();
        break;
      case ServeStatus::FellBack:
        fellBack_.inc();
        break;
      case ServeStatus::GuaranteeViolation:
        violations_.inc();
        break;
    }
}

void
TierFrontDoor::finishOne()
{
    // Release the slot and wake drain() under drainMu_: drain()
    // takes drainMu_ before it returns, so the destructor can never
    // free the mutex or the condition variable under this call.
    std::lock_guard<std::mutex> lock(drainMu_);
    inFlight_.fetch_sub(1, std::memory_order_acq_rel);
    drainCv_.notify_all();
}

std::shared_ptr<TierFrontDoor::Slot>
TierFrontDoor::findSlot(Ticket ticket) const
{
    std::lock_guard<std::mutex> lock(mapMu_);
    auto it = slots_.find(ticket);
    return it != slots_.end() ? it->second : nullptr;
}

std::shared_ptr<TierFrontDoor::Slot>
TierFrontDoor::takeSlot(Ticket ticket)
{
    std::lock_guard<std::mutex> lock(mapMu_);
    auto it = slots_.find(ticket);
    if (it == slots_.end())
        return nullptr;
    auto slot = it->second;
    slots_.erase(it);
    return slot;
}

bool
TierFrontDoor::ready(Ticket ticket) const
{
    auto slot = findSlot(ticket);
    if (!slot)
        panic("unknown or already-collected ticket ", ticket);
    std::lock_guard<std::mutex> lock(slot->mu);
    return slot->ready;
}

bool
TierFrontDoor::poll(Ticket ticket, TierResponse &out)
{
    auto slot = findSlot(ticket);
    if (!slot)
        panic("unknown or already-collected ticket ", ticket);
    {
        std::lock_guard<std::mutex> lock(slot->mu);
        if (!slot->ready)
            return false;
        out = std::move(slot->response);
    }
    takeSlot(ticket); // Retire only after a successful collect.
    collected_.inc();
    return true;
}

TierResponse
TierFrontDoor::wait(Ticket ticket)
{
    auto slot = takeSlot(ticket);
    if (!slot)
        panic("unknown or already-collected ticket ", ticket);
    TierResponse out;
    {
        std::unique_lock<std::mutex> lock(slot->mu);
        // Help the pool while the response is pending: a waiter
        // that is itself a pool worker must not park, and an
        // external waiter donating cycles only speeds the queue.
        while (!slot->ready) {
            lock.unlock();
            if (!pool_.runOneTask()) {
                lock.lock();
                slot->cv.wait_for(lock,
                                  std::chrono::milliseconds(1));
            } else {
                lock.lock();
            }
        }
        out = std::move(slot->response);
    }
    collected_.inc();
    return out;
}

void
TierFrontDoor::drain()
{
    while (inFlight_.load(std::memory_order_acquire) > 0) {
        if (pool_.runOneTask())
            continue;
        std::unique_lock<std::mutex> lock(drainMu_);
        if (inFlight_.load(std::memory_order_acquire) == 0)
            break;
        drainCv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    // The finishOne() that brought the count to zero may still hold
    // drainMu_; wait it out (see finishOne).
    std::lock_guard<std::mutex> lock(drainMu_);
}

std::size_t
TierFrontDoor::inFlight() const
{
    return inFlight_.load(std::memory_order_acquire);
}

FrontDoorStats
TierFrontDoor::stats() const
{
    auto count = [](const auto &c) {
        return static_cast<std::uint64_t>(c.value() + 0.5);
    };
    FrontDoorStats s;
    s.submitted = count(submitted_);
    s.rejected = count(rejected_);
    s.completed = count(completed_);
    s.ok = count(ok_);
    s.fellBack = count(fellBack_);
    s.violations = count(violations_);
    s.collected = count(collected_);
    return s;
}

std::vector<serving::TenantStats>
TierFrontDoor::tenantStats() const
{
    if (governor_ == nullptr)
        return {};
    return governor_->stats();
}

} // namespace toltiers::core
