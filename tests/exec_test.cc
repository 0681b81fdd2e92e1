/**
 * @file
 * Execution-core test suite (ctest label: exec).
 *
 * Locks down the work-stealing pool and the structured parallel
 * loops every parallel path in the library is built on: start/stop
 * across pool sizes, exception propagation through TaskGroup and
 * parallelFor, exactly-once index coverage, ordered parallelMap
 * reduction, the nested-submission deadlock guard (a waiter helps,
 * it never parks while work is runnable), and the independence of
 * the per-task RNG streams the determinism contract rests on.
 *
 * The TierFrontDoor stress tests at the bottom push thousands of
 * concurrent requests — with fault injection — through submit()/
 * wait() from many client threads and check conservation: every
 * submitted request is exactly one of rejected/completed, completed
 * splits exactly into ok/fell-back/violation, and no violation is
 * ever dropped on the floor. These run under TSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/front_door.hh"
#include "core/resilience.hh"
#include "core/tier_service.hh"
#include "exec/exec.hh"
#include "obs/metrics.hh"
#include "serving/cache.hh"
#include "serving/fault.hh"
#include "serving/service_version.hh"

namespace co = toltiers::core;
namespace ex = toltiers::exec;
namespace ob = toltiers::obs;
namespace sv = toltiers::serving;

namespace {

/** Reliable constant-profile version with per-payload output. */
class StubVersion : public sv::ServiceVersion
{
  public:
    StubVersion(std::string name, double latency, double cost,
                double confidence = 0.9)
        : name_(std::move(name)), instance_("cpu-small"),
          latency_(latency), cost_(cost), confidence_(confidence)
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &instanceName() const override
    {
        return instance_;
    }
    std::size_t workloadSize() const override { return 64; }

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
};

sv::FaultSpec
faultMix(double failure, double timeout, std::uint64_t seed)
{
    sv::FaultSpec spec;
    spec.failureRate = failure;
    spec.timeoutRate = timeout;
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

} // namespace

// ------------------------------------------------------------- ThreadPool

TEST(Pool, StartsAndStopsAcrossSizes)
{
    for (std::size_t threads : {0u, 1u, 2u, 4u, 8u}) {
        ex::ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(),
                  threads <= 1 ? 0u : threads);

        std::atomic<int> ran{0};
        ex::TaskGroup group(pool);
        for (int i = 0; i < 32; ++i)
            group.run([&] { ran.fetch_add(1); });
        group.wait();
        EXPECT_EQ(ran.load(), 32);
    }
}

TEST(Pool, DestructorCompletesPendingDetachedTasks)
{
    std::atomic<int> ran{0};
    {
        ex::ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        // No wait: the destructor must finish the queue, not drop it.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(Pool, InlinePoolRunsTasksOnTheWaiter)
{
    ex::ThreadPool pool(1);
    std::thread::id waiter = std::this_thread::get_id();
    std::thread::id runner;
    ex::TaskGroup group(pool);
    group.run([&] { runner = std::this_thread::get_id(); });
    group.wait();
    EXPECT_EQ(runner, waiter);
}

TEST(Pool, CurrentIdentifiesWorkerThreads)
{
    EXPECT_EQ(ex::ThreadPool::current(), nullptr);
    ex::ThreadPool pool(2);
    std::atomic<int> onPool{0};
    ex::TaskGroup group(pool);
    for (int i = 0; i < 16; ++i)
        group.run([&] {
            if (ex::ThreadPool::current() == &pool)
                onPool.fetch_add(1);
        });
    group.wait();
    // The external waiter helps, so not every task necessarily ran
    // on a worker — but tasks that did must see the right pool, and
    // helping never mislabels the waiter as a worker.
    EXPECT_EQ(ex::ThreadPool::current(), nullptr);
    EXPECT_LE(onPool.load(), 16);
}

TEST(Pool, RunOneTaskDrainsInjectedQueue)
{
    ex::ThreadPool pool(1); // No workers: tasks only run if helped.
    std::atomic<int> ran{0};
    for (int i = 0; i < 5; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_EQ(pool.pendingTasks(), 5u);
    int helped = 0;
    while (pool.runOneTask())
        ++helped;
    EXPECT_EQ(helped, 5);
    EXPECT_EQ(ran.load(), 5);
    EXPECT_FALSE(pool.runOneTask());
}

// -------------------------------------------------------------- TaskGroup

TEST(TaskGroup, WaitRethrowsTheFirstException)
{
    ex::ThreadPool pool(2);
    ex::TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        group.run([&, i] {
            ran.fetch_add(1);
            if (i == 3)
                throw std::runtime_error("task 3 boom");
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 8); // The batch still ran to completion.
    EXPECT_EQ(group.pendingCount(), 0u);
}

TEST(TaskGroup, DestructorDrainsWithoutThrowing)
{
    ex::ThreadPool pool(2);
    std::atomic<int> ran{0};
    {
        ex::TaskGroup group(pool);
        for (int i = 0; i < 8; ++i)
            group.run([&] {
                ran.fetch_add(1);
                throw std::runtime_error("swallowed by dtor");
            });
        // No wait(): the destructor must drain and not terminate.
    }
    EXPECT_EQ(ran.load(), 8);
}

// ------------------------------------------------------------ parallelFor

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    ex::ThreadPool pool(4);
    for (std::size_t grain : {1u, 3u, 16u, 1000u}) {
        constexpr std::size_t kN = 500;
        std::vector<std::atomic<int>> visits(kN);
        ex::parallelFor(
            pool, 0, kN,
            [&](std::size_t i) { visits[i].fetch_add(1); }, grain);
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(visits[i].load(), 1)
                << "index " << i << " grain " << grain;
    }
}

TEST(ParallelFor, RespectsNonZeroBeginAndEmptyRanges)
{
    ex::ThreadPool pool(2);
    std::atomic<std::size_t> sum{0};
    ex::parallelFor(pool, 10, 20,
                    [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 145u); // 10 + 11 + ... + 19.

    std::atomic<int> ran{0};
    ex::parallelFor(pool, 5, 5, [&](std::size_t) { ran = 1; });
    ex::parallelFor(pool, 7, 3, [&](std::size_t) { ran = 1; });
    EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, RethrowsBodyExceptions)
{
    // Parallel path (several chunks, several workers)...
    ex::ThreadPool pool(4);
    EXPECT_THROW(ex::parallelFor(pool, 0, 100,
                                 [](std::size_t i) {
                                     if (i == 37)
                                         throw std::runtime_error(
                                             "i=37");
                                 }),
                 std::runtime_error);
    // ...and the serial fallback path.
    ex::ThreadPool inline_pool(1);
    EXPECT_THROW(ex::parallelFor(inline_pool, 0, 100,
                                 [](std::size_t i) {
                                     if (i == 37)
                                         throw std::runtime_error(
                                             "i=37");
                                 }),
                 std::runtime_error);
    // The pool survives the aborted loop.
    std::atomic<int> ran{0};
    ex::parallelFor(pool, 0, 10,
                    [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelMap, ReductionIsAlwaysInIndexOrder)
{
    ex::ThreadPool pool(8);
    auto out = ex::parallelMap<std::size_t>(
        pool, 1000, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i);
}

TEST(ParallelMap, MatchesSerialResultForAnyThreadCount)
{
    auto work = [](ex::ThreadPool &pool) {
        return ex::parallelMap<double>(
            pool, 257,
            [](std::size_t i) {
                auto rng = ex::taskRng(99, i);
                double acc = 0.0;
                for (int k = 0; k < 10; ++k)
                    acc += rng.uniform(0.0, 1.0);
                return acc;
            },
            4);
    };
    ex::ThreadPool serial(1);
    auto want = work(serial);
    for (std::size_t threads : {2u, 4u, 8u}) {
        ex::ThreadPool pool(threads);
        auto got = work(pool);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(got[i], want[i]) // Bit-identical, not NEAR.
                << "index " << i << " at " << threads << " threads";
    }
}

// --------------------------------------------- nested-submission guard

TEST(Nesting, NestedParallelForDoesNotDeadlock)
{
    // Every worker of a tiny pool blocks in an outer wait while the
    // inner loops still need executing — only helping waits make
    // this finish.
    ex::ThreadPool pool(2);
    std::atomic<std::size_t> leaves{0};
    ex::parallelFor(pool, 0, 8, [&](std::size_t) {
        ex::parallelFor(pool, 0, 8, [&](std::size_t) {
            ex::parallelFor(pool, 0, 4, [&](std::size_t) {
                leaves.fetch_add(1);
            });
        });
    });
    EXPECT_EQ(leaves.load(), 8u * 8u * 4u);
}

TEST(Nesting, TaskSubmittingToItsOwnPoolCompletes)
{
    ex::ThreadPool pool(2);
    std::atomic<int> inner{0};
    ex::TaskGroup outer(pool);
    for (int i = 0; i < 4; ++i)
        outer.run([&] {
            ex::TaskGroup child(pool);
            for (int j = 0; j < 4; ++j)
                child.run([&] { inner.fetch_add(1); });
            child.wait();
        });
    outer.wait();
    EXPECT_EQ(inner.load(), 16);
}

// ------------------------------------------------------------ RNG streams

TEST(Rng, TaskSeedsAreDistinctAcrossTasksAndSeeds)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed : {0ull, 1ull, 42ull}) {
        for (std::uint64_t task = 0; task < 2000; ++task)
            seen.insert(ex::taskSeed(seed, task));
    }
    EXPECT_EQ(seen.size(), 3u * 2000u);
}

TEST(Rng, StreamsAreReproducibleAndIndependent)
{
    auto draws = [](std::uint64_t seed, std::uint64_t task) {
        auto rng = ex::taskRng(seed, task);
        std::vector<std::uint32_t> out;
        for (int i = 0; i < 16; ++i)
            out.push_back(rng.nextU32());
        return out;
    };
    // Same (seed, task) → same stream; a pure function of both.
    EXPECT_EQ(draws(7, 3), draws(7, 3));
    // Adjacent tasks and adjacent seeds diverge immediately.
    EXPECT_NE(draws(7, 3), draws(7, 4));
    EXPECT_NE(draws(7, 3), draws(8, 3));
    // Stream prefixes don't overlap between adjacent tasks.
    auto a = draws(7, 0), b = draws(7, 1);
    std::set<std::uint32_t> inter(a.begin(), a.end());
    std::size_t shared = 0;
    for (auto v : b)
        shared += inter.count(v);
    EXPECT_LE(shared, 1u); // Collisions allowed, overlap is not.
}

TEST(Rng, ConfiguredThreadCountHonorsEnv)
{
    // configuredThreadCount() re-reads TT_THREADS each call.
    ASSERT_EQ(setenv("TT_THREADS", "3", 1), 0);
    EXPECT_EQ(ex::configuredThreadCount(), 3u);
    ASSERT_EQ(setenv("TT_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(ex::configuredThreadCount(), 1u);
    ASSERT_EQ(setenv("TT_THREADS", "100000", 1), 0);
    EXPECT_EQ(ex::configuredThreadCount(), 256u);
    ASSERT_EQ(unsetenv("TT_THREADS"), 0);
    EXPECT_GE(ex::configuredThreadCount(), 1u);
}

// ---------------------------------------------------------- TierFrontDoor

TEST(FrontDoor, SubmitWaitMatchesDirectHandle)
{
    StubVersion fast("fast", 0.010, 1.0);
    StubVersion slow("slow", 0.050, 5.0);
    co::TierService svc({&fast, &slow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});

    ex::ThreadPool pool(2);
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    co::TierFrontDoor door(svc, cfg);

    sv::ServiceRequest req;
    req.payload = 4;
    req.tier.tolerance = 0.10;

    auto direct = svc.handle(req);
    auto ticket = door.submit(req);
    ASSERT_NE(ticket, co::TierFrontDoor::kRejected);
    auto resp = door.wait(ticket);
    EXPECT_EQ(resp.output, direct.output);
    EXPECT_EQ(resp.status, direct.status);
    EXPECT_DOUBLE_EQ(resp.latencySeconds, direct.latencySeconds);

    auto s = door.stats();
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.collected, 1u);
    EXPECT_EQ(s.rejected, 0u);
}

TEST(FrontDoor, PollReportsInFlightThenCollectsOnce)
{
    StubVersion fast("fast", 0.010, 1.0);
    co::TierService svc({&fast});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});

    // Inline pool (no workers): the request stays queued until the
    // client helps, so the in-flight state is observable.
    ex::ThreadPool pool(1);
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    co::TierFrontDoor door(svc, cfg);

    sv::ServiceRequest req;
    req.tier.tolerance = 0.10;
    auto ticket = door.submit(req);
    ASSERT_NE(ticket, co::TierFrontDoor::kRejected);

    co::TierResponse out;
    EXPECT_FALSE(door.ready(ticket));
    EXPECT_FALSE(door.poll(ticket, out)); // Still in flight.
    EXPECT_EQ(door.inFlight(), 1u);

    ASSERT_TRUE(pool.runOneTask()); // Client donates a cycle.
    EXPECT_TRUE(door.ready(ticket));
    EXPECT_TRUE(door.poll(ticket, out));
    EXPECT_EQ(out.output, "fast-answer-0");
    EXPECT_EQ(door.inFlight(), 0u);

    // A collected ticket is retired; collecting again is a bug.
    EXPECT_DEATH((void)door.poll(ticket, out), "ticket");
}

TEST(FrontDoor, ShedsAtTheDoorWhenTheQueueIsFull)
{
    StubVersion fast("fast", 0.010, 1.0);
    co::TierService svc({&fast});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});

    ex::ThreadPool pool(1); // No workers: nothing drains on its own.
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    cfg.queueCapacity = 3;
    co::TierFrontDoor door(svc, cfg);

    sv::ServiceRequest req;
    req.tier.tolerance = 0.10;
    std::vector<co::TierFrontDoor::Ticket> tickets;
    for (int i = 0; i < 3; ++i) {
        auto t = door.submit(req);
        ASSERT_NE(t, co::TierFrontDoor::kRejected);
        tickets.push_back(t);
    }
    EXPECT_EQ(door.submit(req), co::TierFrontDoor::kRejected);
    EXPECT_EQ(door.stats().rejected, 1u);

    for (auto t : tickets)
        door.wait(t); // Helping wait drains the queue.
    EXPECT_EQ(door.inFlight(), 0u);

    // Capacity freed: admission works again.
    auto t = door.submit(req);
    ASSERT_NE(t, co::TierFrontDoor::kRejected);
    door.wait(t);

    auto s = door.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.completed, 4u);
    EXPECT_EQ(s.collected, 4u);
}

TEST(FrontDoor, CacheHitCompletesOnTheSubmittingThread)
{
    StubVersion fast("fast", 0.010, 1.0);
    co::TierService svc({&fast});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    sv::ResultCache cache;
    svc.setCache(&cache);

    sv::ServiceRequest warm;
    warm.payload = 5;
    warm.tier.tolerance = 0.10;
    (void)svc.handle(warm); // Fills the cache: one lookup, missed.

    ex::ThreadPool pool(2);
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    co::TierFrontDoor door(svc, cfg);

    // Park both workers, so only the submitting thread can serve.
    std::atomic<bool> release{false};
    std::atomic<int> parked{0};
    for (int i = 0; i < 2; ++i) {
        pool.submit([&] {
            parked.fetch_add(1);
            while (!release.load())
                std::this_thread::yield();
        });
    }
    while (parked.load() < 2)
        std::this_thread::yield();
    const std::size_t parkedTasks = pool.pendingTasks();

    struct Seen
    {
        std::atomic<bool> done{false};
        std::thread::id thread;
        std::string output;
    };
    auto hook = [](Seen &seen) {
        return [&seen](const co::TierResponse &r) {
            seen.thread = std::this_thread::get_id();
            seen.output = r.output;
            seen.done.store(true);
        };
    };

    // A hit is served before submitAsync returns, on this thread,
    // and nothing reaches the pool.
    Seen hit;
    ASSERT_TRUE(door.submitAsync(warm, hook(hit)));
    EXPECT_TRUE(hit.done.load());
    EXPECT_EQ(hit.thread, std::this_thread::get_id());
    EXPECT_EQ(hit.output, "fast-answer-5");
    EXPECT_EQ(pool.pendingTasks(), parkedTasks);

    // So is a ticket's: it is ready the moment submit() returns.
    auto ticket = door.submit(warm);
    ASSERT_NE(ticket, co::TierFrontDoor::kRejected);
    EXPECT_TRUE(door.ready(ticket));
    EXPECT_EQ(pool.pendingTasks(), parkedTasks);

    // A miss is one pool task, served by a worker once they run.
    sv::ServiceRequest cold = warm;
    cold.payload = 6;
    Seen miss;
    ASSERT_TRUE(door.submitAsync(cold, hook(miss)));
    EXPECT_FALSE(miss.done.load());
    EXPECT_EQ(pool.pendingTasks(), parkedTasks + 1);
    release.store(true);
    while (!miss.done.load())
        std::this_thread::yield();
    EXPECT_NE(miss.thread, std::this_thread::get_id());
    EXPECT_EQ(miss.output, "fast-answer-6");
    EXPECT_EQ(door.wait(ticket).output, "fast-answer-5");
    door.drain();

    // Every request counts once and is looked up once.
    auto s = door.stats();
    EXPECT_EQ(s.submitted, 3u);
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.collected, 3u);
    sv::CacheStats c = cache.stats();
    EXPECT_EQ(c.lookups, 4u); // warm-up + three door requests
    EXPECT_EQ(c.hits, 2u);
}

/**
 * The headline stress test: 8 client threads × 500 requests each
 * through submit()/wait() against a fault-injected version ladder,
 * checking exact conservation of every counter and that no
 * guarantee violation is silently dropped. Runs under TSan in CI.
 */
TEST(FrontDoorStress, ConservationHoldsUnderConcurrentClients)
{
    constexpr std::size_t kClients = 8;
    constexpr std::size_t kPerClient = 500;

    StubVersion fast("fast", 0.010, 1.0);
    StubVersion mid("mid", 0.030, 3.0);
    StubVersion slow("slow", 0.050, 5.0);
    sv::FaultyServiceVersion faultyFast(
        fast, sv::FaultSchedule(faultMix(0.25, 0.05, 101)));
    sv::FaultyServiceVersion faultyMid(
        mid, sv::FaultSchedule(faultMix(0.25, 0.05, 102)));
    sv::FaultyServiceVersion faultySlow(
        slow, sv::FaultSchedule(faultMix(0.25, 0.05, 103)));

    co::TierService svc({&faultyFast, &faultyMid, &faultySlow});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    svc.setVersionProfiles({{0, 0.20, 0.010, 1.0},
                            {1, 0.04, 0.030, 3.0},
                            {2, 0.0, 0.050, 5.0}});
    co::ResiliencePolicy policy;
    policy.maxRetries = 1;
    svc.setResilience(policy);

    ob::Registry registry;
    ex::ThreadPool pool(4);
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    cfg.queueCapacity = 64; // Small on purpose: exercise shedding.
    cfg.metrics = &registry;
    co::TierFrontDoor door(svc, cfg);

    struct ClientTally
    {
        std::size_t rejected = 0;
        std::size_t ok = 0;
        std::size_t fellBack = 0;
        std::size_t violations = 0;
    };
    std::vector<ClientTally> tallies(kClients);

    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ClientTally &tally = tallies[c];
            for (std::size_t i = 0; i < kPerClient; ++i) {
                sv::ServiceRequest req;
                req.id = c * kPerClient + i;
                req.payload = (c + i) % 64;
                req.tier.tolerance = 0.10;
                auto ticket = door.submit(req);
                if (ticket == co::TierFrontDoor::kRejected) {
                    ++tally.rejected;
                    continue;
                }
                auto resp = door.wait(ticket);
                switch (resp.status) {
                  case co::ServeStatus::Ok:
                    ++tally.ok;
                    break;
                  case co::ServeStatus::FellBack:
                    ++tally.fellBack;
                    break;
                  case co::ServeStatus::GuaranteeViolation:
                    ++tally.violations;
                    break;
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    door.drain();

    ClientTally seen;
    for (const auto &t : tallies) {
        seen.rejected += t.rejected;
        seen.ok += t.ok;
        seen.fellBack += t.fellBack;
        seen.violations += t.violations;
    }

    auto s = door.stats();
    // Conservation, exact: submitted = rejected + completed, and
    // completed splits exactly into the three outcomes.
    EXPECT_EQ(s.submitted, kClients * kPerClient);
    EXPECT_EQ(s.rejected + s.completed, s.submitted);
    EXPECT_EQ(s.ok + s.fellBack + s.violations, s.completed);
    // Every accepted request was collected by its client.
    EXPECT_EQ(s.collected, s.completed);
    EXPECT_EQ(door.inFlight(), 0u);

    // The door's accounting matches what the clients saw response
    // by response — in particular, no violation was dropped.
    EXPECT_EQ(s.rejected, seen.rejected);
    EXPECT_EQ(s.ok, seen.ok);
    EXPECT_EQ(s.fellBack, seen.fellBack);
    EXPECT_EQ(s.violations, seen.violations);

    // With 25% failures on every rung some requests must have
    // degraded, or the injection wasn't exercised at all.
    EXPECT_GT(s.fellBack + s.violations, 0u);

    // The registry mirror agrees with the door's own tallies.
    auto counter = [&](const std::string &name) {
        double total = 0.0;
        for (const auto &snap : registry.snapshot())
            if (snap.name == name)
                total += snap.value;
        return static_cast<std::uint64_t>(total + 0.5);
    };
    EXPECT_EQ(counter("tt_frontdoor_submitted_total"), s.submitted);
    EXPECT_EQ(counter("tt_frontdoor_rejected_total"), s.rejected);
    EXPECT_EQ(counter("tt_frontdoor_completed_total"), s.completed);
    EXPECT_EQ(counter("tt_frontdoor_violations_total"),
              s.violations);
}

/** Striped counters must not lose increments under contention. */
TEST(FrontDoorStress, StripedCountersAreExactAfterJoin)
{
    ob::Counter counter;
    constexpr int kThreads = 8;
    constexpr int kIncrements = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i)
                counter.inc();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(counter.value(),
                     static_cast<double>(kThreads) * kIncrements);
}
