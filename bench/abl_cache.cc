/**
 * @file
 * ABL-5: result cache on the serving path.
 *
 * The paper's motivation (§1, Fig. 4) is that the large majority of
 * requests — ~74% for ASR, ~65% for IC — are unchanged across
 * service versions: a serving layer that recomputes the tier chain
 * for every repeated input wastes exactly the latency and money
 * tiering saves. This ablation quantifies what the sharded result
 * cache (serving/cache.hh) recovers:
 *
 *  1. A repeat-rate sweep over a real-CPU spin workload, cache off
 *     vs. on, measuring steady-state mean response time on the
 *     synchronous serving path — hit rate, reduction, and the
 *     guarantee-violation count (which must stay zero: a cached
 *     answer is only served to tolerances at least as loose as the
 *     bound it was produced under).
 *  2. The same stream pushed through the concurrent TierFrontDoor,
 *     one submit per request, reporting throughput with the cache
 *     attached.
 *
 * Everything is measured steady-state only: thread pools, warmup
 * requests, and cache construction run before the stopwatch starts.
 * Results land in BENCH_cache.json (--cache-json=... to override);
 * --cache-requests scales the run and --cache-mb/--cache-ttl size
 * the cache.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/random.hh"
#include "common/stopwatch.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "core/front_door.hh"
#include "core/rule_generator.hh"
#include "core/tier_service.hh"
#include "exec/exec.hh"
#include "harness.hh"
#include "serving/cache.hh"

using namespace toltiers;

namespace {

/** One measured repeat-rate point of the sweep. */
struct CachePoint
{
    double repeatRate = 0.0;
    double meanUncachedUs = 0.0; //!< Synchronous path, cache off.
    double meanCachedUs = 0.0;   //!< Synchronous path, cache on.
    double reductionPct = 0.0;   //!< Mean response-time reduction.
    double hitRate = 0.0;        //!< Cache hits / lookups.
    std::uint64_t violations = 0; //!< Must stay 0.
    double submitThroughput = 0.0; //!< Front door, per-request.
};

/** Bench knobs, all CLI-overridable. */
struct CacheBenchConfig
{
    std::size_t requests = 2000;
    std::size_t cacheMb = 64;
    double cacheTtlSeconds = 0.0;
    std::string jsonPath = "BENCH_cache.json";
};

/**
 * Deterministic request stream at the target repeat rate: each
 * request repeats an already-issued payload with probability
 * `repeat_rate`, else touches a fresh one.
 */
std::vector<std::size_t>
makeStream(std::size_t requests, double repeat_rate,
           std::uint64_t seed)
{
    common::Pcg32 rng(seed);
    std::vector<std::size_t> stream;
    stream.reserve(requests);
    std::size_t next_unique = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        if (!stream.empty() && rng.nextDouble() < repeat_rate) {
            stream.push_back(stream[rng.nextBounded(
                static_cast<std::uint32_t>(stream.size()))]);
        } else {
            stream.push_back(next_unique++);
        }
    }
    return stream;
}

serving::ServiceRequest
streamRequest(std::size_t id, std::size_t payload)
{
    serving::ServiceRequest req;
    req.id = id;
    req.payload = payload;
    req.tier.tolerance = 0.05;
    return req;
}

/**
 * Serve the stream synchronously and return the mean per-request
 * wall latency in microseconds; counts violations into `point`.
 */
double
synchronousMeanUs(const core::TierService &svc,
                  const std::vector<std::size_t> &stream,
                  CachePoint &point)
{
    double total_us = 0.0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        common::Stopwatch watch;
        auto resp = svc.handle(streamRequest(i, stream[i]));
        total_us += watch.microseconds();
        if (resp.violated())
            ++point.violations;
    }
    return total_us / static_cast<double>(stream.size());
}

/**
 * Push the stream through a warmed-up TierFrontDoor, one submit
 * per request, and report steady-state throughput (req/s).
 */
double
frontDoorThroughput(const core::TierService &svc,
                    const std::vector<std::size_t> &stream)
{
    std::size_t threads =
        std::min<std::size_t>(4, exec::configuredThreadCount());
    exec::ThreadPool pool(threads);
    core::FrontDoorConfig door_cfg;
    door_cfg.pool = &pool;
    door_cfg.queueCapacity = stream.size();

    // Warmup outside the timed region: spin the workers up and
    // prime the allocator before measuring (steady state only).
    {
        core::TierFrontDoor warm_door(svc, door_cfg);
        for (std::size_t i = 0; i < 64; ++i)
            (void)warm_door.submit(streamRequest(i, i));
        warm_door.drain();
    }

    core::TierFrontDoor door(svc, door_cfg);
    common::Stopwatch watch;
    std::vector<core::TierFrontDoor::Ticket> tickets;
    tickets.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        tickets.push_back(door.submit(streamRequest(i, stream[i])));
    for (auto t : tickets)
        (void)door.wait(t);
    double seconds = watch.seconds();
    return seconds > 0.0
               ? static_cast<double>(stream.size()) / seconds
               : 0.0;
}

void
cacheSweep(const CacheBenchConfig &cfg)
{
    // ~40µs of genuine compute per uncached request; the workload
    // index space is as wide as the stream so every fresh payload
    // is a distinct cacheable input.
    bench::SpinVersion fast("spin-fast", 4000, 1.0, cfg.requests);
    bench::SpinVersion accurate("spin-accurate", 12000, 5.0,
                                cfg.requests);
    core::TierService svc({&fast, &accurate});
    core::RoutingRule rule;
    rule.tolerance = 0.05;
    rule.cfg.kind = core::PolicyKind::Single;
    rule.cfg.primary = 0;
    rule.cfg.secondary = 0;
    svc.setRules(serving::Objective::ResponseTime, {rule});

    const std::vector<double> repeat_rates = {0.0, 0.25, 0.50,
                                              0.75, 0.90};
    common::Table table(common::strprintf(
        "result cache vs. request repeat rate (%zu requests, "
        "%zu MiB cache)",
        cfg.requests, cfg.cacheMb));
    table.setHeader({"repeat", "uncached mean", "cached mean",
                     "reduction", "hit rate", "violations",
                     "door req/s"});

    std::vector<CachePoint> points;
    for (double rate : repeat_rates) {
        CachePoint pt;
        pt.repeatRate = rate;
        auto stream = makeStream(cfg.requests, rate, 4242);

        // Cache off: the baseline the reduction is measured from.
        {
            auto warm = synchronousMeanUs(svc, stream, pt);
            (void)warm; // First pass faults everything in.
            pt.meanUncachedUs = synchronousMeanUs(svc, stream, pt);
        }

        // Cache on, cold: misses pay the tier chain and insert,
        // repeats are served from the cache.
        serving::CacheConfig cc;
        cc.capacityBytes = cfg.cacheMb * 1024 * 1024;
        cc.ttlSeconds = cfg.cacheTtlSeconds;
        serving::ResultCache cache(cc);
        svc.setCache(&cache);
        pt.meanCachedUs = synchronousMeanUs(svc, stream, pt);
        auto cs = cache.stats();
        pt.hitRate = cs.lookups > 0
                         ? static_cast<double>(cs.hits) /
                               static_cast<double>(cs.lookups)
                         : 0.0;
        pt.reductionPct =
            pt.meanUncachedUs > 0.0
                ? 100.0 * (1.0 - pt.meanCachedUs /
                                     pt.meanUncachedUs)
                : 0.0;

        // Concurrent path, cache still attached: the door number
        // shows the serving path at steady state, hits included.
        pt.submitThroughput = frontDoorThroughput(svc, stream);
        svc.setCache(nullptr);

        table.addRow(
            {common::formatPercent(rate, 0),
             common::formatFixed(pt.meanUncachedUs, 1) + "us",
             common::formatFixed(pt.meanCachedUs, 1) + "us",
             common::formatFixed(pt.reductionPct, 1) + "%",
             common::formatPercent(pt.hitRate, 1),
             std::to_string(pt.violations),
             common::formatFixed(pt.submitThroughput, 0)});
        points.push_back(pt);
    }
    table.print(std::cout);

    std::ofstream json_out(cfg.jsonPath);
    common::JsonWriter json(json_out);
    json.beginObject();
    json.member("bench", "result_cache");
    json.member("requests", static_cast<double>(cfg.requests));
    json.member("cacheMb", static_cast<double>(cfg.cacheMb));
    json.beginArray("points");
    for (const auto &pt : points) {
        json.beginObject();
        json.member("repeatRate", pt.repeatRate);
        json.member("meanUncachedUs", pt.meanUncachedUs);
        json.member("meanCachedUs", pt.meanCachedUs);
        json.member("reductionPercent", pt.reductionPct);
        json.member("hitRate", pt.hitRate);
        json.member("violations",
                    static_cast<double>(pt.violations));
        json.member("submitThroughput", pt.submitThroughput);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json_out << '\n';
    std::printf("cache sweep written to %s\n\n",
                cfg.jsonPath.c_str());

    std::printf(
        "reading: at a 50%%+ repeat rate the cache serves the "
        "repeated half of the\nstream in lookup time, so the mean "
        "response time drops by at least the hit\nrate times the "
        "tier-chain cost — with zero tolerance-guarantee "
        "violations,\nbecause an entry is only ever served to a "
        "tolerance at least as loose as\nthe bound it was produced "
        "under.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs_session(
        argc, argv,
        {"cache-json", "cache-requests", "cache-mb", "cache-ttl"});
    bench::banner("ABL-5: result cache",
                  "paper §1 Fig. 4: most requests repeat across "
                  "versions; Clipper-style serving layer");

    CacheBenchConfig cfg;
    cfg.requests = static_cast<std::size_t>(
        obs_session.args().getInt("cache-requests", 2000));
    cfg.cacheMb = static_cast<std::size_t>(
        obs_session.args().getInt("cache-mb", 64));
    cfg.cacheTtlSeconds =
        obs_session.args().getDouble("cache-ttl", 0.0);
    cfg.jsonPath = obs_session.args().getString("cache-json",
                                                "BENCH_cache.json");
    cacheSweep(cfg);
    return 0;
}
