/**
 * @file
 * The cached serving path in miniature.
 *
 * Builds a two-version ladder, fronts the tier service with the
 * sharded result cache, and drives a repeated request stream
 * through the concurrent front door: annotated request -> front
 * door -> cache -> tier chain. Prints what each layer contributed:
 * the door's ledger, the cache's hit/miss ledger, and the
 * tolerance-safety demonstration (a tightened request never
 * accepts a loosely-produced cached answer).
 *
 * Flags: --cache-mb=<MiB> --cache-ttl=<seconds>, plus the standard
 * telemetry flags (--log-level, --metrics-out, --trace-out).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "core/front_door.hh"
#include "core/tier_service.hh"
#include "exec/exec.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "serving/cache.hh"

using namespace toltiers;

namespace {

class DemoVersion : public serving::ServiceVersion
{
  public:
    DemoVersion(std::string name, double latency, double cost)
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

    serving::VersionResult
    process(std::size_t index) const override
    {
        serving::VersionResult r;
        r.output = name_ + " answer for payload " +
                   std::to_string(index);
        r.confidence = 0.9;
        r.latencySeconds = latency_;
        r.costDollars = cost_;
        return r;
    }

  private:
    std::string name_;
    std::string instance_;
    double latency_;
    double cost_;
};

core::RoutingRule
singleRule(double tolerance, std::size_t version)
{
    core::RoutingRule rule;
    rule.tolerance = tolerance;
    rule.cfg.kind = core::PolicyKind::Single;
    rule.cfg.primary = version;
    rule.cfg.secondary = version;
    return rule;
}

} // namespace

int
main(int argc, char **argv)
{
    common::CliArgs args(
        argc, argv,
        common::telemetryFlags({"cache-mb", "cache-ttl"}));
    common::applyLogLevel(args);

    std::printf("== cached tier serving ==\n\n");

    DemoVersion fast("fast-v1", 0.010, 1.0);
    DemoVersion accurate("accurate-v3", 0.050, 5.0);
    core::TierService svc({&fast, &accurate});
    svc.setRules(serving::Objective::ResponseTime,
                 {singleRule(0.05, 0), singleRule(0.0, 1)});

    // Tier metrics and span timelines (cache hits carry a "cached"
    // annotation); exported by --metrics-out / --trace-out.
    obs::Tracer tracer;
    svc.attachObservability(
        obs::ObsContext::standard(&tracer, nullptr));

    // The result cache in front of the tier chain. tt_cache_*
    // series land in the global registry (--metrics-out to export).
    serving::CacheConfig cache_cfg;
    cache_cfg.capacityBytes = static_cast<std::size_t>(
                                  args.getInt("cache-mb", 16)) *
                              1024 * 1024;
    cache_cfg.ttlSeconds = args.getDouble("cache-ttl", 0.0);
    cache_cfg.metrics = &obs::Registry::global();
    serving::ResultCache cache(cache_cfg);
    svc.setCache(&cache);

    // The concurrent front door on a small pool.
    exec::ThreadPool pool(2);
    core::FrontDoorConfig door_cfg;
    door_cfg.pool = &pool;
    door_cfg.queueCapacity = 256;
    door_cfg.metrics = &obs::Registry::global();
    core::TierFrontDoor door(svc, door_cfg);

    // Requests arrive in waves over the same 12 payloads. Each is
    // looked up on the submitting thread: the first wave misses and
    // is served on the pool, which fills the cache; every later
    // request is answered at admission from it.
    constexpr std::size_t kWaves = 16;
    constexpr std::size_t kPayloads = 12;
    constexpr std::size_t kRequests = kWaves * kPayloads;
    for (std::size_t wave = 0; wave < kWaves; ++wave) {
        std::vector<core::TierFrontDoor::Ticket> tickets;
        for (std::size_t j = 0; j < kPayloads; ++j) {
            serving::ServiceRequest req;
            req.id = wave * kPayloads + j;
            req.payload = j;
            req.tier.tolerance = 0.05;
            tickets.push_back(door.submit(req));
        }
        for (auto ticket : tickets) {
            if (ticket != core::TierFrontDoor::kRejected)
                (void)door.wait(ticket);
        }
    }

    auto ds = door.stats();
    std::printf("front door: %llu submitted, %llu completed, "
                "%llu rejected, %llu violations\n",
                static_cast<unsigned long long>(ds.submitted),
                static_cast<unsigned long long>(ds.completed),
                static_cast<unsigned long long>(ds.rejected),
                static_cast<unsigned long long>(ds.violations));

    auto cs = cache.stats();
    std::printf("cache: %llu lookups = %llu hits + %llu misses "
                "(%.0f%% hit rate), %zu entries resident\n\n",
                static_cast<unsigned long long>(cs.lookups),
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                cs.lookups > 0
                    ? 100.0 * static_cast<double>(cs.hits) /
                          static_cast<double>(cs.lookups)
                    : 0.0,
                cs.entries);

    // Tolerance safety, demonstrated: the cached answers above were
    // produced under the 0.05 rule. A tolerance-0 request for the
    // same payload must NOT be served from them — it re-executes on
    // the most accurate version instead.
    serving::ServiceRequest strict;
    strict.id = kRequests;
    strict.payload = 0;
    strict.tier.tolerance = 0.0;
    auto resp = svc.handle(strict);
    std::printf("tolerance 0 request for a cached payload: served "
                "by \"%s\"%s\n",
                resp.output.c_str(),
                resp.servedFromCache ? " from the cache (BUG!)"
                                     : " by re-execution");

    // And a loose request after the strict one IS allowed to reuse
    // the strict result's bucket only if tolerances permit; the
    // 0.05 bucket entry is still there and still valid for 0.05.
    serving::ServiceRequest loose;
    loose.id = kRequests + 1;
    loose.payload = 0;
    loose.tier.tolerance = 0.05;
    auto resp2 = svc.handle(loose);
    std::printf("tolerance 0.05 request for the same payload: "
                "%s\n\n",
                resp2.servedFromCache ? "served from the cache"
                                      : "re-executed");

    svc.setCache(nullptr);
    std::printf("takeaway: the cache only ever serves an answer to "
                "a tolerance at least as\nloose as the bound it was "
                "produced under — guarantees survive caching.\n");

    obs::exportForCli(args);
    obs::exportTracesForCli(args, tracer);
    return 0;
}
