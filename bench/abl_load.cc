/**
 * @file
 * ABL-4: queueing behaviour under load (discrete-event cluster
 * simulation).
 *
 * The per-request analyses are closed-form; this ablation checks
 * that the tier advantage survives contention. OSFA deploys all
 * nodes as the most accurate version; the tiered deployment splits
 * the same node budget between a fast-version pool and an
 * accurate-version pool and routes with the Sequential policy.
 * Sweeps the arrival rate and reports mean/p99 response time and
 * cost for both deployments.
 *
 * A second, real-threads mode measures the concurrent serving path
 * itself: synthetic CPU-burning versions behind a TierFrontDoor,
 * swept across pool sizes, reporting wall-clock throughput and the
 * speedup over one thread. Results land in BENCH_parallel.json
 * (override with --parallel-json=...; --parallel-requests scales
 * the run). On a single-core host the sweep still runs — it then
 * documents the (absent) speedup honestly rather than skipping.
 *
 * Throughput is steady-state only: pool construction and a warmup
 * run before the timed region starts, so thread start-up and
 * first-touch allocation costs never land in the reported numbers.
 * The result cache is optional here: --cache-mb/--cache-ttl front
 * the service with one (off by default, keeping
 * BENCH_parallel.json comparable across runs; bench/abl_cache.cc
 * is the dedicated cache ablation).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/json.hh"
#include "common/stopwatch.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "core/front_door.hh"
#include "core/tier_service.hh"
#include "exec/exec.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "serving/cache.hh"
#include "serving/cluster.hh"
#include "serving/deployment.hh"

using namespace toltiers;

namespace {

void
loadSweep(const char *label, const core::MeasurementSet &ms)
{
    std::size_t reference = ms.versionCount() - 1;
    std::size_t fast = 0;
    const std::size_t nodes = 8;
    const std::size_t jobs = 3000;
    const double threshold = 0.8;

    serving::InstanceCatalog catalog;
    const auto &cpu = catalog.get("cpu-small");
    auto osfa = serving::osfaDeployment(ms.versionName(reference),
                                        nodes, cpu);
    auto tiered = serving::tieredDeployment(
        ms.versionName(fast), nodes / 2, ms.versionName(reference),
        nodes - nodes / 2, cpu);

    // Saturation point of the OSFA deployment.
    double osfa_service = ms.meanLatency(reference);
    double sat_rate = static_cast<double>(nodes) / osfa_service;

    common::Table table(
        std::string("load sweep: ") + label +
        common::strprintf(" (%zu nodes, seq(%s->%s,th=%.1f))", nodes,
                          ms.versionName(fast).c_str(),
                          ms.versionName(reference).c_str(),
                          threshold));
    table.setHeader({"load", "osfa mean", "osfa p99", "tier mean",
                     "tier p99", "tier cost cut"});

    for (double load : {0.3, 0.6, 0.9, 1.2}) {
        double rate = load * sat_rate;
        common::Pcg32 rng(99);
        auto arrivals = serving::poissonArrivals(jobs, rate, rng);

        // OSFA: all nodes serve the reference version.
        serving::ClusterSim osfa_sim(osfa.simPools());
        osfa_sim.attachMetrics(&obs::Registry::global());
        std::vector<serving::SimJob> osfa_jobs;
        for (std::size_t j = 0; j < jobs; ++j) {
            serving::SimJob job;
            job.arrival = arrivals[j];
            job.stages = {
                {0, ms.at(reference, j % ms.requestCount()).latency}};
            osfa_jobs.push_back(job);
        }
        auto osfa_rep = osfa_sim.run(osfa_jobs);

        // Tiered: split the node budget; requests start at the fast
        // pool and escalate on low confidence.
        serving::ClusterSim tier_sim(tiered.simPools());
        tier_sim.attachMetrics(&obs::Registry::global());
        std::vector<serving::SimJob> tier_jobs;
        for (std::size_t j = 0; j < jobs; ++j) {
            std::size_t r = j % ms.requestCount();
            serving::SimJob job;
            job.arrival = arrivals[j];
            job.stages = {{0, ms.at(fast, r).latency}};
            if (ms.at(fast, r).confidence < threshold)
                job.stages.push_back(
                    {1, ms.at(reference, r).latency});
            tier_jobs.push_back(job);
        }
        auto tier_rep = tier_sim.run(tier_jobs);

        table.addRow({
            common::formatPercent(load, 0),
            common::formatFixed(osfa_rep.meanResponse * 1e3, 1) +
                "ms",
            common::formatFixed(osfa_rep.p99Response * 1e3, 1) +
                "ms",
            common::formatFixed(tier_rep.meanResponse * 1e3, 1) +
                "ms",
            common::formatFixed(tier_rep.p99Response * 1e3, 1) +
                "ms",
            common::formatPercent(
                1.0 - tier_rep.totalCost / osfa_rep.totalCost, 1),
        });
    }
    table.print(std::cout);
    std::printf("\n");
}

// ------------------------------------------------ real-threads mode

/** Optional serving-path extras for the thread sweep. */
struct ServeOptions
{
    std::size_t cacheMb = 0;    //!< 0 disables the result cache.
    double cacheTtlSeconds = 0.0;
};

struct ParallelPoint
{
    std::size_t threads = 0;
    double seconds = 0.0;
    double throughput = 0.0; //!< Completed requests per second.
    double speedup = 1.0;    //!< vs. the 1-thread run.
    core::FrontDoorStats stats;
};

/** One annotated request of the synthetic stream. */
serving::ServiceRequest
spinRequest(std::size_t i)
{
    serving::ServiceRequest req;
    req.id = i;
    req.payload = i % 64;
    req.tier.tolerance = 0.05;
    return req;
}

/**
 * Push `requests` through a TierFrontDoor backed by a pool of
 * `threads` threads and report wall-clock throughput. The submit
 * side runs on the calling thread; capacity is sized so admission
 * never sheds (this measures the serving path, not the shedder).
 *
 * Steady state only: the pool and the front door are constructed
 * — and a warmup run is served and drained — before the stopwatch
 * starts, so the timed region holds
 * nothing but request execution. A separate warmup door keeps the
 * measured door's accounting clean.
 */
ParallelPoint
frontDoorRun(core::TierService &svc, std::size_t threads,
             std::size_t requests, const ServeOptions &opts)
{
    exec::ThreadPool pool(threads);
    core::FrontDoorConfig cfg;
    cfg.pool = &pool;
    cfg.queueCapacity = requests;

    // Warmup outside the timed region: spins every worker thread
    // up, faults the allocator's arenas in, and primes the service
    // path. The cache (if any) is attached only afterwards, so the
    // measured run starts from a cold, clean cache.
    {
        core::TierFrontDoor warm_door(svc, cfg);
        std::size_t warm = std::min<std::size_t>(
            256, std::max<std::size_t>(threads * 8, 32));
        for (std::size_t i = 0; i < warm; ++i)
            (void)warm_door.submit(spinRequest(i));
        warm_door.drain();
    }

    std::unique_ptr<serving::ResultCache> cache;
    if (opts.cacheMb > 0) {
        serving::CacheConfig cc;
        cc.capacityBytes = opts.cacheMb * 1024 * 1024;
        cc.ttlSeconds = opts.cacheTtlSeconds;
        cache = std::make_unique<serving::ResultCache>(cc);
        svc.setCache(cache.get());
    }
    core::TierFrontDoor door(svc, cfg);

    common::Stopwatch watch;
    std::vector<core::TierFrontDoor::Ticket> tickets;
    tickets.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i)
        tickets.push_back(door.submit(spinRequest(i)));
    for (auto t : tickets)
        door.wait(t);
    double seconds = watch.seconds();
    svc.setCache(nullptr);

    ParallelPoint pt;
    pt.threads = threads;
    pt.seconds = seconds;
    pt.throughput =
        seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
    pt.stats = door.stats();
    return pt;
}

void
parallelSweep(std::size_t requests, const std::string &json_path,
              const ServeOptions &opts)
{
    // ~40µs of real compute per request on a contemporary core —
    // long enough to dominate dispatch overhead, short enough that
    // the whole sweep stays in bench time.
    bench::SpinVersion fast("spin-fast", 4000, 1.0);
    bench::SpinVersion accurate("spin-accurate", 12000, 5.0);
    core::TierService svc({&fast, &accurate});
    core::RoutingRule rule;
    rule.tolerance = 0.05;
    rule.cfg.kind = core::PolicyKind::Single;
    rule.cfg.primary = 0;
    rule.cfg.secondary = 0;
    svc.setRules(serving::Objective::ResponseTime, {rule});

    std::size_t hw = exec::configuredThreadCount();
    std::vector<std::size_t> sweep = {1, 2, 4, 8};
    if (std::find(sweep.begin(), sweep.end(), hw) == sweep.end() &&
        hw < 64)
        sweep.push_back(hw);

    common::Table table(common::strprintf(
        "front-door throughput vs. threads (%zu requests, "
        "hardware threads: %zu)",
        requests, hw));
    table.setHeader(
        {"threads", "wall time", "req/s", "speedup vs 1"});

    std::vector<ParallelPoint> points;
    for (std::size_t threads : sweep) {
        auto pt = frontDoorRun(svc, threads, requests, opts);
        pt.speedup = points.empty()
                         ? 1.0
                         : points.front().seconds / pt.seconds;
        table.addRow({std::to_string(pt.threads),
                      common::formatFixed(pt.seconds * 1e3, 1) + "ms",
                      common::formatFixed(pt.throughput, 0),
                      common::formatFixed(pt.speedup, 2) + "x"});
        points.push_back(pt);
    }
    table.print(std::cout);

    std::ofstream json_out(json_path);
    common::JsonWriter json(json_out);
    json.beginObject();
    json.member("bench", "frontdoor_parallel");
    json.member("requests", static_cast<double>(requests));
    json.member("hardwareThreads", static_cast<double>(hw));
    json.beginArray("points");
    for (const auto &pt : points) {
        json.beginObject();
        json.member("threads", static_cast<double>(pt.threads));
        json.member("seconds", pt.seconds);
        json.member("throughput", pt.throughput);
        json.member("speedup", pt.speedup);
        json.member("completed",
                    static_cast<double>(pt.stats.completed));
        json.member("rejected",
                    static_cast<double>(pt.stats.rejected));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json_out << '\n';
    std::printf("parallel sweep written to %s\n\n", json_path.c_str());

    if (hw == 1)
        std::printf("note: this host exposes a single hardware "
                    "thread; speedups near 1.0x are\nexpected here "
                    "and say nothing about multi-core scaling.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs_session(
        argc, argv,
        {"parallel-json", "parallel-requests", "cache-mb",
         "cache-ttl"});
    bench::banner("ABL-4: tiering under queueing load",
                  "discrete-event node-pool simulation; load relative "
                  "to OSFA saturation");

    ServeOptions opts;
    opts.cacheMb = static_cast<std::size_t>(
        obs_session.args().getInt("cache-mb", 0));
    opts.cacheTtlSeconds =
        obs_session.args().getDouble("cache-ttl", 0.0);

    parallelSweep(
        static_cast<std::size_t>(obs_session.args().getInt(
            "parallel-requests", 2000)),
        obs_session.args().getString("parallel-json",
                                     "BENCH_parallel.json"),
        opts);

    auto asr_ms = bench::asrTrace();
    loadSweep("ASR", asr_ms);

    auto ic_ms = bench::icTrace();
    loadSweep("IC", ic_ms);

    std::printf("reading: because most requests finish on the fast "
                "pool, the tiered deployment\nserves the same node "
                "budget at far lower utilization — the latency gap "
                "widens\nwith load, and past OSFA saturation (load > "
                "100%%) tiering is the only\ndeployment that keeps "
                "queues bounded.\n");
    return 0;
}
