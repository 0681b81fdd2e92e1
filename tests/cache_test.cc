/**
 * @file
 * Result-cache suite (ctest label: cache).
 *
 * Covers the sharded LRU cache's unit semantics (hit/miss, LRU
 * eviction, TTL expiry, tolerance gating, oversized entries,
 * replacement), an 8-thread stress run with exact hit/miss/eviction
 * conservation, the tolerance-safety property over arbitrary
 * interleavings of cached and uncached requests (per-request RNG
 * streams, PR 2 fault-harness style), and result identity with the
 * cache on vs. off.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/resilience.hh"
#include "core/rule_generator.hh"
#include "core/tier_service.hh"
#include "exec/rng.hh"
#include "obs/metrics.hh"
#include "serving/cache.hh"
#include "serving/fault.hh"

namespace co = toltiers::core;
namespace sv = toltiers::serving;
namespace ob = toltiers::obs;
namespace ex = toltiers::exec;

namespace {

constexpr std::size_t kWorkload = 64;

/** Reliable constant-profile version with a fixed modeled error. */
class ErrVersion : public sv::ServiceVersion
{
  public:
    ErrVersion(std::string name, double latency, double cost,
               double error)
        : name_(std::move(name)), instance_("cpu-small"),
          latency_(latency), cost_(cost), error_(error)
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &instanceName() const override
    {
        return instance_;
    }
    std::size_t workloadSize() const override { return kWorkload; }

    sv::VersionResult
    process(std::size_t index) const override
    {
        sv::VersionResult r;
        r.output = name_ + "-answer-" + std::to_string(index);
        r.confidence = 0.9;
        r.latencySeconds = latency_;
        r.costDollars = cost_;
        r.error = error_;
        return r;
    }

    double error() const { return error_; }

  private:
    std::string name_;
    std::string instance_;
    double latency_;
    double cost_;
    double error_;
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

sv::CacheFingerprint
fp(std::uint64_t input, double bucket)
{
    return sv::makeFingerprint(input, sv::Objective::ResponseTime,
                               bucket);
}

sv::CachedResult
entry(std::string output, double tolerance)
{
    sv::CachedResult e;
    e.output = std::move(output);
    e.confidence = 0.9;
    e.tolerance = tolerance;
    return e;
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

// ------------------------------------------------------ ResultCache

TEST(Cache, MissThenHitRoundTrips)
{
    sv::ResultCache cache;
    sv::CachedResult out;
    EXPECT_FALSE(cache.lookup(fp(7, 0.05), 0.05, out));
    cache.insert(fp(7, 0.05), entry("seven", 0.05));
    ASSERT_TRUE(cache.lookup(fp(7, 0.05), 0.05, out));
    EXPECT_EQ(out.output, "seven");
    auto s = cache.stats();
    EXPECT_EQ(s.lookups, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(Cache, ShardCountRoundsUpToPowerOfTwo)
{
    sv::CacheConfig cfg;
    cfg.shards = 5;
    sv::ResultCache cache(cfg);
    EXPECT_EQ(cache.shardCount(), 8u);
    cfg.shards = 0;
    sv::ResultCache one(cfg);
    EXPECT_EQ(one.shardCount(), 1u);
}

TEST(Cache, ToleranceGateNeverServesLooserEntries)
{
    sv::ResultCache cache;
    // Produced under a 0.10 bound: valid for tolerances >= 0.10
    // only.
    cache.insert(fp(3, 0.10), entry("loose", 0.10));
    sv::CachedResult out;
    EXPECT_FALSE(cache.lookup(fp(3, 0.10), 0.05, out));
    EXPECT_TRUE(cache.lookup(fp(3, 0.10), 0.10, out));
    EXPECT_TRUE(cache.lookup(fp(3, 0.10), 0.20, out));
    auto s = cache.stats();
    EXPECT_EQ(s.toleranceRejects, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsedWithinBudget)
{
    sv::CacheConfig cfg;
    cfg.shards = 1;
    // Room for roughly three small entries.
    cfg.capacityBytes = 3 * sv::cacheEntryBytes(entry("vX", 0.05));
    sv::ResultCache cache(cfg);

    cache.insert(fp(1, 0.05), entry("v1", 0.05));
    cache.insert(fp(2, 0.05), entry("v2", 0.05));
    cache.insert(fp(3, 0.05), entry("v3", 0.05));
    // Touch 1 so 2 becomes the LRU victim.
    sv::CachedResult out;
    ASSERT_TRUE(cache.lookup(fp(1, 0.05), 0.05, out));
    cache.insert(fp(4, 0.05), entry("v4", 0.05));

    EXPECT_FALSE(cache.lookup(fp(2, 0.05), 0.05, out));
    EXPECT_TRUE(cache.lookup(fp(1, 0.05), 0.05, out));
    EXPECT_TRUE(cache.lookup(fp(4, 0.05), 0.05, out));
    auto s = cache.stats();
    EXPECT_GE(s.evictions, 1u);
    EXPECT_EQ(s.entries,
              s.insertions - s.evictions - s.expirations -
                  s.replacements);
}

TEST(Cache, TtlExpiresEntriesOnTouch)
{
    sv::CacheConfig cfg;
    cfg.ttlSeconds = 1e-4;
    sv::ResultCache cache(cfg);
    cache.insert(fp(9, 0.05), entry("stale", 0.05));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sv::CachedResult out;
    EXPECT_FALSE(cache.lookup(fp(9, 0.05), 0.05, out));
    auto s = cache.stats();
    EXPECT_EQ(s.expirations, 1u);
    EXPECT_EQ(s.entries, 0u);
}

TEST(Cache, OversizedEntryIsSkippedNotCached)
{
    sv::CacheConfig cfg;
    cfg.shards = 1;
    cfg.capacityBytes = 256;
    sv::ResultCache cache(cfg);
    cache.insert(fp(1, 0.05),
                 entry(std::string(4096, 'x'), 0.05));
    auto s = cache.stats();
    EXPECT_EQ(s.oversized, 1u);
    EXPECT_EQ(s.insertions, 0u);
    EXPECT_EQ(s.entries, 0u);
}

TEST(Cache, ReinsertReplacesAndIsCounted)
{
    sv::ResultCache cache;
    cache.insert(fp(5, 0.05), entry("old", 0.05));
    cache.insert(fp(5, 0.05), entry("new", 0.05));
    sv::CachedResult out;
    ASSERT_TRUE(cache.lookup(fp(5, 0.05), 0.05, out));
    EXPECT_EQ(out.output, "new");
    auto s = cache.stats();
    EXPECT_EQ(s.insertions, 2u);
    EXPECT_EQ(s.replacements, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(Cache, ClearDropsEntriesAndKeepsCounters)
{
    sv::ResultCache cache;
    cache.insert(fp(1, 0.05), entry("a", 0.05));
    cache.clear();
    auto s = cache.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.insertions, 1u);
}

TEST(Cache, MetricsMirrorMatchesStats)
{
    ob::Registry registry;
    sv::CacheConfig cfg;
    cfg.metrics = &registry;
    sv::ResultCache cache(cfg);
    cache.insert(fp(1, 0.05), entry("a", 0.05));
    sv::CachedResult out;
    ASSERT_TRUE(cache.lookup(fp(1, 0.05), 0.05, out));
    EXPECT_FALSE(cache.lookup(fp(2, 0.05), 0.05, out));
    auto s = cache.stats();
    EXPECT_EQ(counterValue(registry, "tt_cache_lookups_total"),
              static_cast<double>(s.lookups));
    EXPECT_EQ(counterValue(registry, "tt_cache_hits_total"),
              static_cast<double>(s.hits));
    EXPECT_EQ(counterValue(registry, "tt_cache_misses_total"),
              static_cast<double>(s.misses));
    EXPECT_EQ(counterValue(registry, "tt_cache_insertions_total"),
              static_cast<double>(s.insertions));
}

// ---------------------------------------------------- cache stress

/**
 * 8 threads hammer one small sharded cache with mixed lookups and
 * inserts; afterwards the counters must balance exactly: every
 * lookup is one of hit/miss, and every inserted entry is resident
 * or left by exactly one of eviction / expiration / replacement.
 */
TEST(CacheStress, ConservationHoldsUnder8Threads)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kOpsPerThread = 4000;
    constexpr std::size_t kKeySpace = 256;
    constexpr double kTols[] = {0.02, 0.05, 0.10};

    sv::CacheConfig cfg;
    cfg.shards = 8;
    cfg.capacityBytes = 16 * 1024; // Small: force evictions.
    sv::ResultCache cache(cfg);

    std::vector<std::uint64_t> localLookups(kThreads, 0);
    std::vector<std::uint64_t> localInserts(kThreads, 0);

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto rng = ex::taskRng(2026, t);
            for (std::size_t i = 0; i < kOpsPerThread; ++i) {
                std::uint64_t key = rng.nextBounded(kKeySpace);
                double tol = kTols[rng.nextBounded(3)];
                if (rng.nextBounded(2) == 0) {
                    sv::CachedResult out;
                    (void)cache.lookup(fp(key, tol), tol, out);
                    ++localLookups[t];
                } else {
                    cache.insert(
                        fp(key, tol),
                        entry("value-" + std::to_string(key),
                              tol));
                    ++localInserts[t];
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    std::uint64_t lookups = 0;
    std::uint64_t inserts = 0;
    for (std::size_t t = 0; t < kThreads; ++t) {
        lookups += localLookups[t];
        inserts += localInserts[t];
    }

    auto s = cache.stats();
    // Exact conservation: nothing lost, nothing double-counted.
    EXPECT_EQ(s.lookups, lookups);
    EXPECT_EQ(s.hits + s.misses, s.lookups);
    EXPECT_EQ(s.insertions + s.oversized, inserts);
    EXPECT_EQ(s.oversized, 0u);
    EXPECT_EQ(s.entries,
              s.insertions - s.evictions - s.expirations -
                  s.replacements);
    // The byte budget held.
    EXPECT_LE(s.bytes, cfg.capacityBytes);
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.evictions + s.replacements, 0u);
}

// --------------------------------------------- tolerance property

/**
 * For ANY interleaving of cached and uncached requests at tolerance
 * t, the served result's error degradation (vs. the most accurate
 * version) never exceeds t — with faults injected on the lower
 * rungs, fallbacks in play, and the cache serving hits in between.
 * Per-request randomness comes from decorrelated taskRng streams,
 * the PR 2 fault-harness idiom.
 */
TEST(CacheProperty, DegradationNeverExceedsToleranceUnderInterleaving)
{
    ErrVersion fast("v-fast", 0.010, 1.0, 0.08);
    ErrVersion mid("v-mid", 0.030, 3.0, 0.04);
    ErrVersion accurate("v-acc", 0.050, 5.0, 0.0);

    sv::FaultSpec spec;
    spec.failureRate = 0.2;
    spec.seed = 41;
    sv::FaultyServiceVersion faultyFast(fast,
                                        sv::FaultSchedule(spec));
    spec.seed = 42;
    sv::FaultyServiceVersion faultyMid(mid,
                                       sv::FaultSchedule(spec));

    co::TierService svc({&faultyFast, &faultyMid, &accurate});
    svc.setRules(sv::Objective::ResponseTime,
                 {singleRule(0.05, 1), singleRule(0.10, 0)});
    svc.setVersionProfiles({{0, 0.08, 0.010, 1.0},
                            {1, 0.04, 0.030, 3.0},
                            {2, 0.0, 0.050, 5.0}});
    co::ResiliencePolicy policy;
    policy.maxRetries = 1;
    svc.setResilience(policy);

    sv::ResultCache cache;
    svc.setCache(&cache);

    // Version error by output prefix: how much worse than the
    // reference was the answer we were actually served?
    auto servedError = [&](const std::string &output) {
        if (output.rfind("v-fast-", 0) == 0)
            return fast.error();
        if (output.rfind("v-mid-", 0) == 0)
            return mid.error();
        if (output.rfind("v-acc-", 0) == 0)
            return accurate.error();
        ADD_FAILURE() << "unrecognized output: " << output;
        return 1.0;
    };

    constexpr double kTols[] = {0.0, 0.03, 0.05, 0.07, 0.10, 0.15};
    constexpr std::size_t kRequests = 4000;
    std::size_t violations = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto rng = ex::taskRng(777, i);
        sv::ServiceRequest req;
        req.id = i;
        req.payload = rng.nextBounded(32); // Heavy repetition.
        req.tier.tolerance = kTols[rng.nextBounded(6)];
        auto resp = svc.handle(req);
        if (resp.status == co::ServeStatus::GuaranteeViolation) {
            ++violations;
            continue;
        }
        double degradation = servedError(resp.output);
        EXPECT_LE(degradation, req.tier.tolerance + 1e-9)
            << "request " << i << " tol " << req.tier.tolerance
            << " served " << resp.output
            << (resp.servedFromCache ? " (cached)" : "");
        // A cached answer is by construction an Ok answer.
        if (resp.servedFromCache) {
            EXPECT_EQ(resp.status, co::ServeStatus::Ok);
        }
    }
    svc.setCache(nullptr);

    // The reliable reference version makes every request servable.
    EXPECT_EQ(violations, 0u);
    auto s = cache.stats();
    EXPECT_GT(s.hits, 0u); // The interleaving exercised the cache.
    EXPECT_EQ(s.lookups, s.hits + s.misses);
}

/** With the cache on, results are identical — only timings differ. */
TEST(CacheProperty, ResultsIdenticalWithCacheOnAndOff)
{
    ErrVersion fast("v-fast", 0.010, 1.0, 0.03);
    ErrVersion accurate("v-acc", 0.050, 5.0, 0.0);
    co::TierService svc({&fast, &accurate});
    svc.setRules(sv::Objective::ResponseTime,
                 {singleRule(0.05, 0)});

    auto makeRequest = [](std::size_t i) {
        sv::ServiceRequest req;
        req.id = i;
        req.payload = i % 16;
        req.tier.tolerance = 0.05;
        return req;
    };

    constexpr std::size_t kRequests = 256;
    std::vector<std::string> uncached;
    uncached.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i)
        uncached.push_back(svc.handle(makeRequest(i)).output);

    sv::ResultCache cache;
    svc.setCache(&cache);
    for (std::size_t pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < kRequests; ++i) {
            auto resp = svc.handle(makeRequest(i));
            EXPECT_EQ(resp.output, uncached[i]);
            EXPECT_EQ(resp.status, co::ServeStatus::Ok);
        }
    }
    svc.setCache(nullptr);

    auto s = cache.stats();
    // 16 distinct payloads: everything after the first touch hits.
    EXPECT_EQ(s.misses, 16u);
    EXPECT_EQ(s.hits, 2 * kRequests - 16u);
}
