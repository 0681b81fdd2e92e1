#include "core/front_door.hh"

#include <algorithm>
#include <chrono>
#include <thread>
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
        window_ = cfg.dispatchWindow != 0
                      ? cfg.dispatchWindow
                      : std::max<std::size_t>(
                            2 * pool_.threadCount(), 2);
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
        batches_.exported =
            &metrics_->counter("tt_frontdoor_batches_total", {},
                               "Batch tasks run via submitBatch()");
    }
}

TierFrontDoor::~TierFrontDoor()
{
    drain();
    // drain() returns when every request has COMPLETED, but a
    // pump-dispatched pool task still runs `dispatched_--; pump()`
    // after its request's finishOne() — code that reads this
    // object (and the governor it owns). Destroying the door while
    // such a task is in flight is a use-after-free that parks the
    // worker on a dead mutex, so wait for the last one to let go.
    while (pumpBusy_.load(std::memory_order_acquire) != 0) {
        if (!pool_.runOneTask())
            std::this_thread::yield();
    }
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

void
TierFrontDoor::dispatchOrQueue(const std::string &tenant,
                               std::size_t cost,
                               std::function<void()> work,
                               bool inline_when_workerless)
{
    if (governor_ != nullptr) {
        governor_->enqueue(tenant, cost, std::move(work));
        pump();
        return;
    }
    if (inline_when_workerless && pool_.threadCount() == 0) {
        work();
        return;
    }
    pool_.submit(std::move(work));
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
            // semantics; see submitAsync) and keep draining.
            work();
            dispatched_.fetch_sub(1, std::memory_order_acq_rel);
            continue;
        }
        pumpBusy_.fetch_add(1, std::memory_order_acq_rel);
        pool_.submit([this, work = std::move(work)] {
            work();
            dispatched_.fetch_sub(1, std::memory_order_acq_rel);
            pump();
            // Last touch of `this`: after this decrement the
            // destructor is free to proceed (see ~TierFrontDoor).
            pumpBusy_.fetch_sub(1, std::memory_order_acq_rel);
        });
    }
}

TierFrontDoor::Ticket
TierFrontDoor::admit(const serving::ServiceRequest &request,
                     std::shared_ptr<Slot> &slot_out)
{
    if (!claimCapacity(request))
        return kRejected;

    slot_out = std::make_shared<Slot>();
    std::lock_guard<std::mutex> lock(mapMu_);
    Ticket ticket = nextTicket_++;
    slots_.emplace(ticket, slot_out);
    return ticket;
}

TierFrontDoor::Ticket
TierFrontDoor::submit(serving::ServiceRequest request)
{
    std::shared_ptr<Slot> slot;
    Ticket ticket = admit(request, slot);
    if (ticket == kRejected)
        return kRejected;

    TierResponse hit;
    Pending pending;
    if (lookupAtAdmission(request, hit, pending)) {
        complete(slot, std::move(hit), request.tenant);
        return ticket;
    }
    // The pool lambda must stay copyable, hence the shared_ptr
    // trace carrier inside Pending.
    pending.request = std::move(request);
    std::string tenant = pending.request.tenant;
    dispatchOrQueue(
        tenant, 1,
        [this, slot, pending = std::move(pending)]() mutable {
            complete(slot, executePending(pending),
                     pending.request.tenant);
        },
        /*inline_when_workerless=*/false);
    return ticket;
}

bool
TierFrontDoor::submitAsync(serving::ServiceRequest request,
                           Completion done)
{
    TT_ASSERT(done != nullptr,
              "submitAsync needs a completion hook");
    if (!claimCapacity(request))
        return false;

    TierResponse hit;
    Pending pending;
    if (lookupAtAdmission(request, hit, pending)) {
        deliver(hit, request.tenant, done);
        return true;
    }
    pending.request = std::move(request);
    std::string tenant = pending.request.tenant;
    auto serve = [this, pending = std::move(pending),
                  done = std::move(done)]() mutable {
        deliver(executePending(pending), pending.request.tenant,
                done);
    };
    // A worker-less pool (exec::ThreadPool(0/1)) only runs tasks
    // when someone waits on them — and the push-style caller never
    // waits, so its requests would park forever. Serve inline on
    // the submitter's thread instead (dispatchOrQueue does the
    // same for fair-queued work): that is exactly the pool's
    // serial semantics, just without requiring a helper.
    dispatchOrQueue(tenant, 1, std::move(serve),
                    /*inline_when_workerless=*/true);
    return true;
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
        span_ctx.offset = pending.waited + request.batchWaitSeconds;
    if (!service_.lookup(request, span_ctx, hit, pending.looked)) {
        pending.queued = common::Stopwatch();
        return false;
    }
    recordWait(request, pending.waited);
    if (pending.trace) {
        if (tracer_ != nullptr) {
            (void)addDoorSpans(*pending.trace, pending.root, request,
                               pending.waited);
        }
        tracer->finish(std::move(*pending.trace));
    }
    return true;
}

TierResponse
TierFrontDoor::executePending(Pending &pending) const
{
    double wait = pending.waited + pending.queued.seconds();
    recordWait(pending.request, wait);
    if (!pending.trace) {
        return service_.execute(pending.request, pending.looked,
                                obs::TraceContext{});
    }
    double offset = tracer_ != nullptr
                        ? addDoorSpans(*pending.trace, pending.root,
                                       pending.request, wait)
                        : 0.0;
    TierResponse resp = service_.execute(
        pending.request, pending.looked,
        {pending.trace.get(), pending.root, offset});
    originTracer()->finish(std::move(*pending.trace));
    return resp;
}

std::vector<TierFrontDoor::Ticket>
TierFrontDoor::submitBatch(std::vector<serving::ServiceRequest> batch,
                           BatchDone done)
{
    std::vector<Ticket> tickets(batch.size(), kRejected);

    // One admitted (request, slot) unit of the batch task. Each
    // unit carries its own trace and admission stopwatch: requests
    // in one batch task still get individual span trees and
    // queue-wait attribution.
    struct Unit
    {
        serving::ServiceRequest request;
        std::shared_ptr<Slot> slot;
        std::shared_ptr<obs::Trace> trace;
        common::Stopwatch queued;
    };
    auto units = std::make_shared<std::vector<Unit>>();
    units->reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        std::shared_ptr<Slot> slot;
        Ticket t = admit(batch[i], slot);
        tickets[i] = t;
        if (t == kRejected)
            continue;
        std::shared_ptr<obs::Trace> trace;
        if (tracer_ != nullptr && tracer_->shouldSample()) {
            trace = std::make_shared<obs::Trace>(
                tracer_->startTrace());
        }
        units->push_back({std::move(batch[i]), std::move(slot),
                          std::move(trace), common::Stopwatch()});
    }

    if (units->empty()) {
        // Fully shed: the feedback hook still fires (a batcher's
        // AIMD loop must never starve), but nothing runs.
        if (done)
            done(0, 0.0);
        return tickets;
    }

    batches_.inc();
    // The batch runs as one fair-queue item costed at its size,
    // charged to the first admitted unit's tenant. The adaptive
    // batcher groups by tenant (serving/batcher.hh), so a batch is
    // single-tenant by construction; hand-built mixed batches are
    // charged to their first request.
    std::string tenant = units->front().request.tenant;
    dispatchOrQueue(
        tenant, units->size(),
        [this, units, done = std::move(done)] {
            common::Stopwatch watch;
            for (Unit &u : *units) {
                complete(u.slot,
                         serveAdmitted(u.request, u.trace,
                                       u.queued.seconds()),
                         u.request.tenant);
            }
            if (done)
                done(units->size(), watch.seconds());
        },
        /*inline_when_workerless=*/false);
    return tickets;
}

TierResponse
TierFrontDoor::serveAdmitted(const serving::ServiceRequest &request,
                             const std::shared_ptr<obs::Trace> &trace,
                             double queue_wait) const
{
    recordWait(request, queue_wait);
    if (!trace) {
        // With a tracer attached, the door already consumed this
        // request's (negative) sampling decision; pass an inactive
        // context so the service does not re-sample and originate
        // a second, disconnected trace. Without one, delegate so a
        // service-attached tracer can still originate.
        if (tracer_ != nullptr)
            return service_.handle(request, obs::TraceContext{});
        return service_.handle(request);
    }

    // Originate the span tree: root `request` span (duration
    // patched by the tier service) and the door's wall-clock spans.
    // Everything downstream nests under the propagated context.
    std::uint64_t root = trace->addSpan("request", 0.0, 0.0);
    double offset = addDoorSpans(*trace, root, request, queue_wait);
    obs::TraceContext span_ctx{trace.get(), root, offset};
    TierResponse resp = service_.handle(request, span_ctx);
    tracer_->finish(std::move(*trace));
    return resp;
}

void
TierFrontDoor::recordWait(const serving::ServiceRequest &request,
                          double queue_wait) const
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
    if (request.batchWaitSeconds > 0.0) {
        stageBatchWait_
            .get([&]() -> obs::Histogram & {
                return obs::stageHistogram(*metrics_,
                                           obs::stage::kBatchWait);
            })
            .observe(request.batchWaitSeconds);
    }
}

double
TierFrontDoor::addDoorSpans(obs::Trace &trace, std::uint64_t root,
                            const serving::ServiceRequest &request,
                            double queue_wait)
{
    std::uint64_t adm =
        trace.addSpan("admission", 0.0, queue_wait, root);
    trace.annotate(adm, "clock", "wall");
    double offset = queue_wait;
    if (request.batchWaitSeconds > 0.0) {
        std::uint64_t bw = trace.addSpan(
            "batch_wait", offset, request.batchWaitSeconds, root);
        trace.annotate(bw, "clock", "wall");
        offset += request.batchWaitSeconds;
    }
    return offset;
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

void
TierFrontDoor::complete(const std::shared_ptr<Slot> &slot,
                        TierResponse response,
                        const std::string &tenant)
{
    account(response, tenant);

    {
        std::lock_guard<std::mutex> lock(slot->mu);
        slot->response = std::move(response);
        slot->ready = true;
    }
    slot->cv.notify_all();

    finishOne();
}

void
TierFrontDoor::deliver(const TierResponse &response,
                       const std::string &tenant,
                       const Completion &done)
{
    account(response, tenant);
    // The hook is this request's collector: it receives the
    // produced-and-accounted response exactly once, before the
    // capacity slot frees (so drain() still covers delivery).
    done(response);
    collected_.inc();
    finishOne();
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
    s.batches = count(batches_);
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
