/**
 * @file
 * Multi-tenancy suite (ctest label: tenants).
 *
 * Locks down the tenancy layer end to end: the TokenBucket's refill
 * algebra on an explicit logical clock, TenantPolicy quota lookup,
 * the TenantGovernor's deficit-round-robin weight proportions and
 * anti-starvation property, exact per-tenant conservation through
 * the TierFrontDoor under an 8-thread hammer (with the registry's
 * tt_tenant_* mirrors agreeing to the unit), the batcher's
 * same-tenant grouping invariant, per-tenant SLO burn windows, and
 * the runtime Provisioner: sustained-burn scale-up, hysteresis
 * scale-down, anti-flap cooldown, clamps, the cost model, and
 * byte-identical decision logs regardless of background thread
 * count. These run under TSan and ASan/UBSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/front_door.hh"
#include "core/provisioner.hh"
#include "core/tier_service.hh"
#include "exec/exec.hh"
#include "obs/metrics.hh"
#include "obs/slo.hh"
#include "serving/batcher.hh"
#include "serving/cluster.hh"
#include "serving/service_version.hh"
#include "serving/tenant.hh"

namespace co = toltiers::core;
namespace ex = toltiers::exec;
namespace ob = toltiers::obs;
namespace sv = toltiers::serving;

namespace {

/** Reliable constant-profile version with per-payload output. */
class StubVersion : public sv::ServiceVersion
{
  public:
    StubVersion(std::string name, double latency, double cost)
        : name_(std::move(name)), instance_("cpu-small"),
          latency_(latency), cost_(cost)
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
        r.confidence = 0.9;
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
};

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

sv::ServiceRequest
tenantRequest(const std::string &tenant, std::size_t payload = 0)
{
    sv::ServiceRequest req;
    req.payload = payload;
    req.tier.tolerance = 0.10;
    req.tenant = tenant;
    return req;
}

} // namespace

// ------------------------------------------------------- TokenBucket

TEST(TokenBucket, RefillsOnTheLogicalClock)
{
    // 10 tokens/s, burst 2, starts full.
    sv::TokenBucket bucket(10.0, 2.0);
    EXPECT_FALSE(bucket.unlimited());
    EXPECT_DOUBLE_EQ(bucket.tokens(0.0), 2.0);

    // Burst drains instantly; the third take at t=0 is over quota.
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_TRUE(bucket.tryTake(0.0));
    EXPECT_FALSE(bucket.tryTake(0.0));

    // 0.1 s refills exactly one token.
    EXPECT_TRUE(bucket.tryTake(0.1));
    EXPECT_FALSE(bucket.tryTake(0.1));

    // A long idle period caps at burst, not rate * elapsed.
    EXPECT_DOUBLE_EQ(bucket.tokens(100.0), 2.0);
    EXPECT_TRUE(bucket.tryTake(100.0));
    EXPECT_TRUE(bucket.tryTake(100.0));
    EXPECT_FALSE(bucket.tryTake(100.0));
}

TEST(TokenBucket, RegressingClockRefillsNothing)
{
    sv::TokenBucket bucket(10.0, 1.0);
    EXPECT_TRUE(bucket.tryTake(10.0));
    // Going back in time must not mint tokens (or underflow).
    EXPECT_FALSE(bucket.tryTake(5.0));
    EXPECT_FALSE(bucket.tryTake(0.0));
    // Time resumes from the furthest clock seen.
    EXPECT_TRUE(bucket.tryTake(11.0));
}

TEST(TokenBucket, UnlimitedWhenNoRateIsSet)
{
    sv::TokenBucket def;
    EXPECT_TRUE(def.unlimited());
    sv::TokenBucket zero(0.0, 4.0);
    EXPECT_TRUE(zero.unlimited());
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(zero.tryTake(0.0));
}

// ------------------------------------------------------ TenantPolicy

TEST(TenantPolicy, QuotaForFallsBackToDefaults)
{
    sv::TenantPolicy policy;
    policy.defaults.ratePerSecond = 5.0;
    policy.defaults.weight = 1.0;
    policy.tenants["gold"].ratePerSecond = 100.0;
    policy.tenants["gold"].weight = 8.0;

    EXPECT_DOUBLE_EQ(policy.quotaFor("gold").ratePerSecond, 100.0);
    EXPECT_DOUBLE_EQ(policy.quotaFor("gold").weight, 8.0);
    EXPECT_DOUBLE_EQ(policy.quotaFor("silver").ratePerSecond, 5.0);
    EXPECT_DOUBLE_EQ(policy.quotaFor("").ratePerSecond, 5.0);
}

TEST(TenantLabel, AnonymousForEmptyId)
{
    EXPECT_EQ(sv::tenantMetricLabel(""), "anonymous");
    EXPECT_EQ(sv::tenantMetricLabel("t0"), "t0");
}

// ---------------------------------------------------- TenantGovernor

TEST(TenantGovernor, DequeueHonorsWeightProportions)
{
    sv::TenantPolicy policy;
    policy.tenants["heavy"].weight = 3.0;
    policy.tenants["light"].weight = 1.0;
    sv::TenantGovernor governor(policy);

    // Backlog both tenants deeply, then drain 40 items: DRR must
    // serve them 3:1 over any sustained backlogged interval.
    std::map<std::string, int> served;
    for (int i = 0; i < 60; ++i) {
        governor.enqueue("heavy", 1, [&] { ++served["heavy"]; });
        governor.enqueue("light", 1, [&] { ++served["light"]; });
    }
    for (int i = 0; i < 40; ++i) {
        auto work = governor.dequeue();
        ASSERT_TRUE(static_cast<bool>(work));
        work();
    }
    EXPECT_EQ(served["heavy"], 30);
    EXPECT_EQ(served["light"], 10);
    EXPECT_EQ(governor.queuedCount(), 80u);
}

TEST(TenantGovernor, FloodingTenantCannotStarveAnother)
{
    sv::TenantPolicy policy; // Equal weights.
    sv::TenantGovernor governor(policy);

    // A 1000-item flood is already queued when the light tenant's
    // 10 items arrive. Under FIFO the light items would sit behind
    // the whole flood; under DRR with equal weights each light item
    // must be released within ~2 dequeues of the previous one.
    int flood_served = 0;
    for (int i = 0; i < 1000; ++i)
        governor.enqueue("flood", 1, [&] { ++flood_served; });
    std::vector<int> light_positions;
    int position = 0;
    for (int i = 0; i < 10; ++i) {
        governor.enqueue("light", 1, [&, i] {
            (void)i;
            light_positions.push_back(position);
        });
    }
    for (position = 0; position < 40; ++position) {
        auto work = governor.dequeue();
        ASSERT_TRUE(static_cast<bool>(work));
        work();
    }
    ASSERT_EQ(light_positions.size(), 10u);
    // All ten light items drained within the first 40 releases
    // (interleaved 1:1 with the flood), not after the 1000-item
    // backlog.
    EXPECT_LT(light_positions.back(), 25);
}

TEST(TenantGovernor, ConservationAndStatsSingleThreaded)
{
    sv::TenantPolicy policy;
    policy.tenants["quota"].ratePerSecond = 1.0;
    policy.tenants["quota"].burst = 2.0;
    sv::TenantGovernor governor(policy);

    // 5 submissions against burst 2 at t=0: 2 admitted, 3 rejected.
    int admitted = 0;
    for (int i = 0; i < 5; ++i) {
        if (governor.admit("quota", 0.0))
            ++admitted;
    }
    EXPECT_EQ(admitted, 2);
    // One admitted request is lost to the capacity gate, one
    // completes (with a violation).
    governor.countShed("quota");
    governor.countCompleted("quota", true);

    auto stats = governor.stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].tenant, "quota");
    EXPECT_EQ(stats[0].submitted, 5u);
    EXPECT_EQ(stats[0].rejected, 3u);
    EXPECT_EQ(stats[0].shed, 1u);
    EXPECT_EQ(stats[0].completed, 1u);
    EXPECT_EQ(stats[0].violations, 1u);
    EXPECT_EQ(stats[0].submitted,
              stats[0].rejected + stats[0].shed +
                  stats[0].completed);
}

// ------------------------------------------------- FrontDoor tenancy

TEST(FrontDoorTenants, QuotaRejectsBeforeTheSharedGate)
{
    StubVersion fast("fast", 0.0001, 1.0);
    co::TierService svc({&fast});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});

    sv::TenantPolicy policy;
    // Tiny refill: effectively only the burst is admitted.
    policy.defaults.ratePerSecond = 0.001;
    policy.defaults.burst = 2.0;

    ex::ThreadPool pool(2);
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    cfg.tenantPolicy = &policy;
    co::TierFrontDoor door(svc, cfg);
    ASSERT_TRUE(door.fairTenancy());

    std::vector<co::TierFrontDoor::Ticket> tickets;
    for (int i = 0; i < 5; ++i)
        tickets.push_back(door.submit(tenantRequest("t0")));
    door.drain();

    int granted = 0;
    for (auto t : tickets) {
        if (t != co::TierFrontDoor::kRejected) {
            ++granted;
            (void)door.wait(t);
        }
    }
    EXPECT_EQ(granted, 2);

    // Global identity: quota rejects count as front-door rejects.
    auto s = door.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.rejected, 3u);
    EXPECT_EQ(s.completed, 2u);

    // Per-tenant identity.
    auto tenants = door.tenantStats();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0].tenant, "t0");
    EXPECT_EQ(tenants[0].submitted, 5u);
    EXPECT_EQ(tenants[0].rejected, 3u);
    EXPECT_EQ(tenants[0].shed, 0u);
    EXPECT_EQ(tenants[0].completed, 2u);
}

TEST(FrontDoorTenants, EightThreadConservationIsExact)
{
    StubVersion fast("fast", 0.00005, 1.0);
    co::TierService svc({&fast});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});

    sv::TenantPolicy policy; // Unlimited rate: fair queueing only.
    policy.tenants["t0"].weight = 4.0;

    ob::Registry registry;
    ex::ThreadPool pool(4);
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    cfg.metrics = &registry;
    cfg.tenantPolicy = &policy;
    cfg.queueCapacity = 64; // Small enough to force shedding.
    co::TierFrontDoor door(svc, cfg);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 500;
    std::atomic<std::uint64_t> shed{0};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            std::string tenant = "t" + std::to_string(t % 3);
            for (int i = 0; i < kPerThread; ++i) {
                auto ticket =
                    door.submit(tenantRequest(tenant, i % 64));
                if (ticket == co::TierFrontDoor::kRejected) {
                    shed.fetch_add(1);
                    continue;
                }
                (void)door.wait(ticket);
            }
        });
    }
    for (auto &c : clients)
        c.join();
    door.drain();

    // Global conservation.
    auto s = door.stats();
    EXPECT_EQ(s.submitted,
              std::uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(s.submitted, s.rejected + s.completed);
    EXPECT_EQ(s.rejected, shed.load());

    // Per-tenant conservation, exact per row, summing to the
    // global identity — and the registry mirrors agree.
    auto tenants = door.tenantStats();
    ASSERT_EQ(tenants.size(), 3u);
    std::uint64_t submitted = 0, rejected = 0, shed_total = 0,
                  completed = 0;
    for (const auto &row : tenants) {
        EXPECT_EQ(row.submitted,
                  row.rejected + row.shed + row.completed)
            << "tenant " << row.tenant;
        EXPECT_EQ(row.queued, 0u) << "tenant " << row.tenant;
        submitted += row.submitted;
        rejected += row.rejected;
        shed_total += row.shed;
        completed += row.completed;

        ob::Labels labels{{"tenant", row.tenant}};
        EXPECT_DOUBLE_EQ(
            registry
                .counter("tt_tenant_submitted_total", labels)
                .value(),
            static_cast<double>(row.submitted));
        EXPECT_DOUBLE_EQ(
            registry.counter("tt_tenant_rejected_total", labels)
                .value(),
            static_cast<double>(row.rejected));
        EXPECT_DOUBLE_EQ(
            registry.counter("tt_tenant_shed_total", labels)
                .value(),
            static_cast<double>(row.shed));
        EXPECT_DOUBLE_EQ(
            registry
                .counter("tt_tenant_completed_total", labels)
                .value(),
            static_cast<double>(row.completed));
    }
    EXPECT_EQ(submitted, s.submitted);
    // Tenant-level sheds are the capacity-gate losses; quota
    // rejects are the rest of the global rejected tally.
    EXPECT_EQ(rejected + shed_total, s.rejected);
    EXPECT_EQ(completed, s.completed);
}

TEST(FrontDoorTenants, LightTenantFinishesUnderFlood)
{
    StubVersion fast("fast", 0.0001, 1.0);
    co::TierService svc({&fast});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});

    sv::TenantPolicy policy; // Equal weights, unlimited rate.
    ex::ThreadPool pool(2);
    co::FrontDoorConfig cfg;
    cfg.pool = &pool;
    cfg.tenantPolicy = &policy;
    cfg.queueCapacity = 4096;
    co::TierFrontDoor door(svc, cfg);

    // Flood tenant saturates; the light tenant's small closed-loop
    // run must complete fully (no starvation, no shed).
    std::atomic<bool> stop{false};
    std::thread flooder([&] {
        while (!stop.load()) {
            auto t = door.submit(tenantRequest("flood"));
            if (t != co::TierFrontDoor::kRejected)
                (void)door.wait(t);
        }
    });

    int light_completed = 0;
    for (int i = 0; i < 200; ++i) {
        auto t = door.submit(tenantRequest("light", i % 64));
        if (t == co::TierFrontDoor::kRejected)
            continue;
        (void)door.wait(t);
        ++light_completed;
    }
    stop.store(true);
    flooder.join();
    door.drain();

    EXPECT_EQ(light_completed, 200);
    for (const auto &row : door.tenantStats()) {
        EXPECT_EQ(row.submitted,
                  row.rejected + row.shed + row.completed)
            << "tenant " << row.tenant;
    }
}

TEST(FrontDoorTenants, TeardownWaitsForTrailingPumpTasks)
{
    // Regression: a pump-dispatched pool task finishes its request
    // (releasing drain()) BEFORE its trailing `dispatched_--;
    // pump()` runs, so a door destroyed right after a burst of
    // async completions could tear the governor down under a
    // worker still inside pump() — a use-after-free that parked
    // the worker on a dead mutex and hung the pool join forever.
    // Chains of self-resubmitting requests maximize trailing pumps
    // at teardown; the destructor must always come back.
    StubVersion fast("fast", 0.0001, 1.0);
    co::TierService svc({&fast});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    sv::TenantPolicy policy;

    for (int round = 0; round < 10; ++round) {
        ex::ThreadPool pool(2);
        co::FrontDoorConfig cfg;
        cfg.pool = &pool;
        cfg.tenantPolicy = &policy;
        cfg.queueCapacity = 1024;
        std::atomic<bool> stop{false};
        std::atomic<int> completed{0};
        {
            // Declared before the door, so it is destroyed after
            // it: the door's destructor drains every completion —
            // including one that passed its `stop` check just
            // before scope exit — while `launch` still lives.
            std::function<void()> launch;
            co::TierFrontDoor door(svc, cfg);
            launch = [&] {
                (void)door.submitAsync(
                    tenantRequest("chain"),
                    [&](const co::TierResponse &) {
                        completed.fetch_add(1);
                        if (!stop.load())
                            launch();
                    });
            };
            for (int i = 0; i < 64; ++i)
                launch();
            while (completed.load() < 256)
                std::this_thread::yield();
            stop.store(true);
            // Destructor runs here, racing the trailing pumps.
        }
        EXPECT_GE(completed.load(), 256);
    }
}

// ------------------------------------------------------ Batcher keys

TEST(BatcherTenants, NeverMixesTenantsInOneBatch)
{
    std::vector<std::vector<sv::ServiceRequest>> batches;
    sv::BatcherConfig cfg;
    cfg.maxBatch = 8;
    cfg.maxDelaySeconds = 3600.0; // Only size closes groups here.
    cfg.adaptive = false;
    {
        sv::AdaptiveBatcher batcher(
            [&](std::vector<sv::ServiceRequest> batch,
                sv::BatchDone done) {
                batches.push_back(std::move(batch));
                if (done)
                    done(batches.back().size(), 0.0);
            },
            cfg);
        // Interleave two tenants with identical tier annotations:
        // without tenant-aware grouping they would co-batch.
        for (int i = 0; i < 16; ++i) {
            batcher.submit(tenantRequest(i % 2 ? "a" : "b", i));
        }
        batcher.flush();
    }
    ASSERT_FALSE(batches.empty());
    std::size_t total = 0;
    for (const auto &batch : batches) {
        ASSERT_FALSE(batch.empty());
        for (const auto &req : batch) {
            EXPECT_EQ(req.tenant, batch.front().tenant)
                << "a batch mixed tenants";
        }
        total += batch.size();
    }
    EXPECT_EQ(total, 16u);
}

// ------------------------------------------------------- Tenant SLOs

TEST(SloTracker, TenantWindowsBurnIndependently)
{
    ob::SloPolicy policy;
    policy.target = 0.9;
    policy.fastWindowEvents = 10;
    policy.slowWindowEvents = 20;
    policy.minEvents = 10;
    policy.pageBurnRate = 5.0;
    policy.ticketBurnRate = 2.0;
    ob::SloTracker tracker(policy);

    // The noisy tenant violates constantly; the victim never does.
    for (int i = 0; i < 40; ++i) {
        tracker.recordTenant("noisy", false);
        tracker.recordTenant("victim", true);
    }
    auto statuses = tracker.tenantStatuses();
    ASSERT_EQ(statuses.size(), 2u);
    ASSERT_EQ(statuses[0].tenant, "noisy");
    ASSERT_EQ(statuses[1].tenant, "victim");

    // noisy: every event bad -> burn = 1 / (1 - 0.9) = 10x budget.
    EXPECT_NEAR(statuses[0].fastBurnRate, 10.0, 1e-9);
    EXPECT_NEAR(statuses[0].slowBurnRate, 10.0, 1e-9);
    EXPECT_EQ(statuses[0].alert, ob::SloAlert::Page);
    EXPECT_EQ(statuses[0].bad, 40u);

    // victim: clean budget, no alert — the neighbor's burn never
    // leaks into this window.
    EXPECT_DOUBLE_EQ(statuses[1].fastBurnRate, 0.0);
    EXPECT_EQ(statuses[1].alert, ob::SloAlert::None);
    EXPECT_EQ(statuses[1].bad, 0u);
}

TEST(SloTracker, TenantSeriesMirrorIntoTheRegistry)
{
    ob::Registry registry;
    ob::SloTracker tracker;
    tracker.attachMetrics(&registry);
    tracker.recordTenant("t0", true);
    tracker.recordTenant("t0", false);

    ob::Labels labels{{"tenant", "t0"}};
    EXPECT_DOUBLE_EQ(
        registry.gauge("tt_tenant_slo_events_total", labels)
            .value(),
        2.0);
    EXPECT_DOUBLE_EQ(
        registry.gauge("tt_tenant_slo_bad_total", labels).value(),
        1.0);
}

// ------------------------------------------------------- ClusterSim

TEST(ClusterSim, SetPoolServersRescalesAPool)
{
    sv::ClusterSim sim({{"small", 2, 0.1}, {"big", 4, 1.0}});
    EXPECT_EQ(sim.poolName(0), "small");
    EXPECT_EQ(sim.poolServers(0), 2u);
    EXPECT_EQ(sim.poolServers(1), 4u);

    sim.setPoolServers(0, 8);
    EXPECT_EQ(sim.poolServers(0), 8u);
    // Clamped up to one server — a pool never vanishes.
    sim.setPoolServers(1, 0);
    EXPECT_EQ(sim.poolServers(1), 1u);
}

// ------------------------------------------------------ Provisioner

namespace {

co::PoolSignal
hotSignal(const std::string &pool, double burn)
{
    co::PoolSignal s;
    s.pool = pool;
    s.fastBurnRate = burn;
    s.slowBurnRate = burn;
    return s;
}

co::PoolSignal
calmSignal(const std::string &pool)
{
    co::PoolSignal s;
    s.pool = pool;
    return s;
}

co::ProvisionerConfig
testConfig()
{
    co::ProvisionerConfig cfg;
    cfg.minServers = 1;
    cfg.maxServers = 16;
    cfg.burnScaleUpThreshold = 6.0;
    cfg.sustainTicks = 3;
    cfg.calmTicks = 4;
    cfg.cooldownTicks = 2;
    cfg.scaleUpFactor = 2.0;
    return cfg;
}

} // namespace

TEST(Provisioner, ScalesUpOnlyAfterSustainedBurn)
{
    co::Provisioner prov(testConfig());
    prov.setServers("pool", 2);

    // Two hot ticks: below sustainTicks, no decision.
    EXPECT_TRUE(prov.tick({hotSignal("pool", 14.4)}).empty());
    EXPECT_TRUE(prov.tick({hotSignal("pool", 14.4)}).empty());
    // The third consecutive hot tick doubles capacity.
    auto decisions = prov.tick({hotSignal("pool", 14.4)});
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_TRUE(decisions[0].up);
    EXPECT_EQ(decisions[0].fromServers, 2u);
    EXPECT_EQ(decisions[0].toServers, 4u);
    EXPECT_EQ(decisions[0].reason, "burn");
    EXPECT_EQ(prov.servers("pool"), 4u);

    // A calm tick in the middle resets the streak.
    co::Provisioner fresh(testConfig());
    fresh.setServers("pool", 2);
    EXPECT_TRUE(fresh.tick({hotSignal("pool", 14.4)}).empty());
    EXPECT_TRUE(fresh.tick({calmSignal("pool")}).empty());
    EXPECT_TRUE(fresh.tick({hotSignal("pool", 14.4)}).empty());
    EXPECT_TRUE(fresh.tick({hotSignal("pool", 14.4)}).empty());
    EXPECT_EQ(fresh.tick({hotSignal("pool", 14.4)}).size(), 1u);
}

TEST(Provisioner, CooldownSuppressesFlapping)
{
    co::Provisioner prov(testConfig());
    prov.setServers("pool", 2);
    for (int i = 0; i < 3; ++i)
        (void)prov.tick({hotSignal("pool", 20.0)});
    ASSERT_EQ(prov.servers("pool"), 4u);

    // Hot ticks during the 2-tick cooldown take no decision.
    EXPECT_TRUE(prov.tick({hotSignal("pool", 20.0)}).empty());
    EXPECT_TRUE(prov.tick({hotSignal("pool", 20.0)}).empty());
    EXPECT_EQ(prov.servers("pool"), 4u);
    // After cooldown the streak rebuilds from zero.
    EXPECT_TRUE(prov.tick({hotSignal("pool", 20.0)}).empty());
    EXPECT_TRUE(prov.tick({hotSignal("pool", 20.0)}).empty());
    auto decisions = prov.tick({hotSignal("pool", 20.0)});
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].toServers, 8u);
}

TEST(Provisioner, ScalesDownWithHysteresisAndClamps)
{
    co::Provisioner prov(testConfig());
    prov.setServers("pool", 3);

    // calmTicks = 4 quiet ticks shed exactly one server.
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(prov.tick({calmSignal("pool")}).empty());
    auto decisions = prov.tick({calmSignal("pool")});
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].up);
    EXPECT_EQ(decisions[0].fromServers, 3u);
    EXPECT_EQ(decisions[0].toServers, 2u);
    EXPECT_EQ(decisions[0].reason, "calm");

    // Drain to the floor: capacity never goes below minServers.
    for (int i = 0; i < 100; ++i)
        (void)prov.tick({calmSignal("pool")});
    EXPECT_EQ(prov.servers("pool"), 1u);

    // And the ceiling clamps scale-ups.
    co::Provisioner high(testConfig());
    high.setServers("pool", 15);
    for (int i = 0; i < 3; ++i)
        (void)high.tick({hotSignal("pool", 20.0)});
    EXPECT_EQ(high.servers("pool"), 16u);
}

TEST(Provisioner, GuaranteeAndQueueWaitAlsoTrigger)
{
    auto cfg = testConfig();
    cfg.queueWaitScaleUpSeconds = 0.5;
    co::Provisioner prov(cfg);
    prov.setServers("pool", 1);

    co::PoolSignal violated = calmSignal("pool");
    violated.guaranteeViolated = true;
    co::PoolSignal slow = calmSignal("pool");
    slow.queueWaitP99 = 1.0;

    (void)prov.tick({violated});
    (void)prov.tick({violated});
    auto d1 = prov.tick({violated});
    ASSERT_EQ(d1.size(), 1u);
    EXPECT_EQ(d1[0].reason, "guarantee");

    co::Provisioner prov2(cfg);
    prov2.setServers("pool", 1);
    (void)prov2.tick({slow});
    (void)prov2.tick({slow});
    auto d2 = prov2.tick({slow});
    ASSERT_EQ(d2.size(), 1u);
    EXPECT_EQ(d2[0].reason, "queue-wait");
}

TEST(Provisioner, AccruesCostAndAppliesToTheCluster)
{
    auto cfg = testConfig();
    cfg.costPerServerTick = 0.25;
    co::Provisioner prov(cfg);
    prov.setServers("a", 2);
    prov.setServers("b", 4);

    // 6 servers x 0.25 per tick x 2 ticks.
    (void)prov.tick({calmSignal("a"), calmSignal("b")});
    (void)prov.tick({calmSignal("a"), calmSignal("b")});
    EXPECT_DOUBLE_EQ(prov.costDollars(), 3.0);
    EXPECT_EQ(prov.ticks(), 2u);

    sv::ClusterSim sim({{"a", 1, 0.1}, {"b", 1, 0.1},
                        {"unmanaged", 7, 0.1}});
    prov.apply(sim);
    EXPECT_EQ(sim.poolServers(0), 2u);
    EXPECT_EQ(sim.poolServers(1), 4u);
    EXPECT_EQ(sim.poolServers(2), 7u); // Unmatched: untouched.
}

TEST(Provisioner, DecisionLogIsByteIdenticalAcrossThreadCounts)
{
    // The same signal sequence must replay to the same
    // decisionLine() log no matter how much unrelated parallelism
    // is running — tick() is a pure function of (config, signals).
    auto runScenario = [](std::size_t noise_threads) {
        ex::ThreadPool pool(noise_threads);
        std::atomic<std::uint64_t> sink{0};
        ex::TaskGroup group(pool);
        for (int i = 0; i < 64; ++i)
            group.run([&] { sink.fetch_add(1); });

        co::Provisioner prov(testConfig());
        prov.setServers("pool-a", 2);
        prov.setServers("pool-b", 8);
        // A scripted mixed workload: bursts, lulls, violations.
        for (int round = 0; round < 8; ++round) {
            for (int i = 0; i < 5; ++i) {
                (void)prov.tick(
                    {hotSignal("pool-a", 8.0 + round),
                     calmSignal("pool-b")});
            }
            for (int i = 0; i < 6; ++i) {
                (void)prov.tick({calmSignal("pool-a"),
                                 calmSignal("pool-b")});
            }
        }
        group.wait();

        std::string logged;
        for (const auto &d : prov.decisions())
            logged += co::decisionLine(d) + "\n";
        return logged;
    };

    std::string log1 = runScenario(1);
    std::string log2 = runScenario(2);
    std::string log8 = runScenario(8);
    EXPECT_FALSE(log1.empty());
    EXPECT_EQ(log1, log2);
    EXPECT_EQ(log1, log8);
}

TEST(Provisioner, WatchSignalToleratesNullSources)
{
    co::PoolSignal s =
        co::watchSignal("pool", nullptr, nullptr, nullptr);
    EXPECT_EQ(s.pool, "pool");
    EXPECT_DOUBLE_EQ(s.fastBurnRate, 0.0);
    EXPECT_DOUBLE_EQ(s.slowBurnRate, 0.0);
    EXPECT_FALSE(s.guaranteeViolated);
    EXPECT_DOUBLE_EQ(s.queueWaitP99, 0.0);
}
