/**
 * @file
 * `ttbench serve`: the production serving path in its own process —
 * net::TierServer -> TierFrontDoor::submitAsync -> TierService with a
 * ResultCache and telemetry attached as deployed — over one Stack.
 *
 * The server prints `port <n>` once it accepts connections, then
 * answers one-line commands on stdin, each with one line on stdout:
 *
 *     stats           flat `key=value` accounting of door, server,
 *                     cache, tenants and process resource usage
 *     spans <path>    write the timed version calls (traced servers)
 *     inproc <path>   the single-thread in-process layer pass over
 *                     the keys in <path> (traced servers)
 *     quit            stop serving and exit (so does EOF)
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "core/front_door.hh"
#include "exec/pool.hh"
#include "net/server.hh"
#include "obs/obs.hh"
#include "oracle.hh"
#include "serving/cache.hh"
#include "stack.hh"
#include "workload.hh"

namespace perfbench {

namespace {

/** How the guarantee monitor reads tolerances: as the rule generator
 * bounded them (absolute points for IC's binary error). */
obs::DegradationKind
degradationKind(StackKind kind)
{
    return kind == StackKind::Ic ? obs::DegradationKind::AbsolutePoints
                                 : obs::DegradationKind::Relative;
}

/** Appends `name=value` fields to one output line. */
class Line
{
  public:
    template <typename T>
    Line &
    add(const std::string &name, T value)
    {
        os_ << ' ' << name << '=' << value;
        return *this;
    }
    void print(const char *tag) const
    {
        std::printf("%s%s\n", tag, os_.str().c_str());
        std::fflush(stdout);
    }

  private:
    std::ostringstream os_;
};

void
printStats(const core::TierFrontDoor &door, const net::TierServer &server,
           const serving::ResultCache &cache, const Stack &stack)
{
    Line line;
    const core::FrontDoorStats d = door.stats();
    line.add("door.submitted", d.submitted)
        .add("door.rejected", d.rejected)
        .add("door.completed", d.completed)
        .add("door.violations", d.violations);
    const net::ServerStats s = server.stats();
    line.add("server.accepted", s.accepted)
        .add("server.completed", s.completed)
        .add("server.rejected", s.rejected)
        .add("server.aborted", s.aborted)
        .add("server.bad_frames", s.badFrames)
        .add("server.bytes_read", s.bytesRead)
        .add("server.bytes_written", s.bytesWritten);
    const serving::CacheStats c = cache.stats();
    line.add("cache.lookups", c.lookups)
        .add("cache.hits", c.hits)
        .add("cache.insertions", c.insertions)
        .add("cache.evictions", c.evictions);
    for (const serving::TenantStats &t : door.tenantStats()) {
        line.add("tenant." + t.tenant + ".completed", t.completed)
            .add("tenant." + t.tenant + ".shed", t.shed)
            .add("tenant." + t.tenant + ".rejected", t.rejected);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto us = [](const timeval &tv) {
        return static_cast<long long>(tv.tv_sec) * 1000000 + tv.tv_usec;
    };
    line.add("proc.cpu_us", us(ru.ru_utime) + us(ru.ru_stime))
        .add("proc.ctx_switches", ru.ru_nvcsw + ru.ru_nivcsw)
        .add("proc.maxrss_kb", ru.ru_maxrss);
    for (std::size_t v = 0; v < stack.versions().size(); ++v)
        line.add("version." + std::to_string(v) + ".q8",
                 stack.quantized(v) ? 1 : 0);
    line.print("stats");
}

std::vector<std::uint32_t>
readKeys(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::vector<std::uint32_t> keys;
    std::uint32_t k = 0;
    while (is.read(reinterpret_cast<char *>(&k), sizeof k))
        keys.push_back(k);
    return keys;
}

void
writeSpans(const std::string &path, const SpanLog &spans)
{
    std::vector<CallSpan> all = spans.collect();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(all.data()),
             static_cast<std::streamsize>(all.size() * sizeof(CallSpan)));
    Line().add("count", all.size()).print(os ? "spans" : "error");
}

/** Union length of [start, end) intervals, ns. */
double
unionNs(std::vector<CallSpan> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const CallSpan &a, const CallSpan &b) {
                  return a.startNs < b.startNs;
              });
    double total = 0.0;
    std::uint64_t lo = 0, hi = 0;
    bool open = false;
    for (const CallSpan &s : spans) {
        if (open && s.startNs <= hi) {
            hi = std::max(hi, s.endNs);
            continue;
        }
        if (open)
            total += static_cast<double>(hi - lo);
        lo = s.startNs;
        hi = s.endNs;
        open = true;
    }
    if (open)
        total += static_cast<double>(hi - lo);
    return total;
}

/**
 * The in-process layer pass: one thread calls each layer's public
 * functions directly over the given keys — the codec, ruleFor, a
 * ResultCache's lookup/insert, and TierService::handle once with
 * telemetry attached and once with metrics disabled and no context.
 * Each service gets its own fresh cache, so both see the same
 * hit/miss sequence the measured run did.
 */
void
inprocPass(Stack &stack, SpanLog &spans,
           const std::vector<std::uint32_t> &keys)
{
    obs::Registry registry;
    obs::GuaranteeMonitor monitor;
    obs::SloTracker slo;
    serving::CacheConfig cache_cfg;
    cache_cfg.metrics = &registry;
    serving::ResultCache cache_on(cache_cfg);
    serving::ResultCache cache_off;
    serving::ResultCache cache_direct;
    std::unique_ptr<core::TierService> on = stack.newService();
    on->setCache(&cache_on);
    on->attachObservability({&registry, nullptr, &monitor, &slo},
                            degradationKind(stack.kind()));
    std::unique_ptr<core::TierService> off = stack.newService();
    off->setCache(&cache_off);

    double codec_ns = 0, match_ns = 0, lookup_ns = 0, insert_ns = 0;
    double on_ns = 0, off_ns = 0, overhead_ns = 0;
    std::size_t inserts = 0, executed = 0, mismatches = 0;
    net::Bytes buf;
    for (std::uint32_t key : keys) {
        serving::ServiceRequest req;
        req.id = key;
        req.payload = keyPayload(key);
        req.tier.objective = keyObjective(key);
        req.tier.tolerance = keyTolerance(key);

        std::uint64_t t0 = monoNs();
        buf.clear();
        (void)net::encodeRequestFrame(req, buf);
        net::FrameDecode dreq = net::decodeFrame(buf.data(), buf.size());
        codec_ns += static_cast<double>(monoNs() - t0);

        constexpr int kMatchReps = 32;
        t0 = monoNs();
        const core::RoutingRule *rule = nullptr;
        for (int i = 0; i < kMatchReps; ++i)
            rule = &on->ruleFor(dreq.request.tier.tolerance,
                                dreq.request.tier.objective);
        match_ns += static_cast<double>(monoNs() - t0) / kMatchReps;

        spans.clear();
        obs::setMetricsEnabled(true);
        t0 = monoNs();
        core::TierResponse r_on = on->handle(dreq.request);
        double wall_on = static_cast<double>(monoNs() - t0);
        on_ns += wall_on;

        spans.clear();
        obs::setMetricsEnabled(false);
        t0 = monoNs();
        core::TierResponse r_off = off->handle(dreq.request);
        double wall_off = static_cast<double>(monoNs() - t0);
        obs::setMetricsEnabled(true);
        off_ns += wall_off;
        if (!r_off.servedFromCache) {
            overhead_ns += wall_off - unionNs(spans.collect());
            ++executed;
        }
        if (r_on.output != r_off.output)
            ++mismatches;

        t0 = monoNs();
        buf.clear();
        (void)net::encodeResponseFrame(toWire(r_on, req.id), buf);
        net::FrameDecode dresp = net::decodeFrame(buf.data(), buf.size());
        codec_ns += static_cast<double>(monoNs() - t0);
        if (!dreq.ok() || !dresp.ok())
            ++mismatches;

        serving::CacheFingerprint fp = serving::makeFingerprint(
            req.payload, req.tier.objective, rule->tolerance);
        serving::CachedResult cached;
        t0 = monoNs();
        bool hit = cache_direct.lookup(fp, req.tier.tolerance, cached);
        lookup_ns += static_cast<double>(monoNs() - t0);
        if (!hit && r_on.status == core::ServeStatus::Ok) {
            serving::CachedResult entry{r_on.output, r_on.confidence,
                                        rule->tolerance};
            t0 = monoNs();
            cache_direct.insert(fp, std::move(entry));
            insert_ns += static_cast<double>(monoNs() - t0);
            ++inserts;
        }
    }
    spans.clear();
    auto n = static_cast<double>(std::max<std::size_t>(keys.size(), 1));
    Line()
        .add("requests", keys.size())
        .add("mismatches", mismatches)
        .add("net.codec_ns", codec_ns / n)
        .add("tier.rule_match_ns", match_ns / n)
        .add("cache.lookup_ns", lookup_ns / n)
        .add("cache.insert_ns",
             insert_ns / static_cast<double>(std::max<std::size_t>(inserts, 1)))
        .add("obs.cost_us", (on_ns - off_ns) / n / 1e3)
        .add("tier.overhead_us",
             overhead_ns /
                 static_cast<double>(std::max<std::size_t>(executed, 1)) /
                 1e3)
        .print("inproc");
}

} // namespace

int
serveMain(int argc, char **argv)
{
    common::CliArgs args(argc, argv, {"stack", "cache", "fair", "traced"});
    (void)confineToCpus(0, static_cast<int>(kServerThreads));
    std::string stack_name = args.getString("stack", "");
    if (stack_name != "asr" && stack_name != "ic")
        common::fatal("--stack must be asr or ic");
    StackKind kind = stack_name == "asr" ? StackKind::Asr : StackKind::Ic;
    bool traced = args.getBool("traced", false);

    SpanLog spans;
    Stack stack(kind, buildCacheDir(args.getString("cache", "")),
                traced ? &spans : nullptr);

    // Telemetry as deployed: metrics, the guarantee monitor and the
    // SLO tracker on the service; metrics on cache, door and server.
    obs::Registry registry;
    obs::GuaranteeMonitor monitor;
    obs::SloTracker slo;
    serving::CacheConfig cache_cfg;
    cache_cfg.metrics = &registry;
    serving::ResultCache cache(cache_cfg);
    core::TierService &service = stack.service();
    service.setCache(&cache);
    service.attachObservability({&registry, nullptr, &monitor, &slo},
                                degradationKind(kind));

    exec::ThreadPool pool(kServerThreads);
    serving::TenantPolicy policy; // Equal weights, no quotas.
    core::FrontDoorConfig door_cfg;
    door_cfg.pool = &pool;
    door_cfg.metrics = &registry;
    if (args.getBool("fair", false))
        door_cfg.tenantPolicy = &policy;
    core::TierFrontDoor door(service, door_cfg);

    net::ServerConfig server_cfg;
    server_cfg.metrics = &registry;
    net::TierServer server(door, server_cfg);
    std::string err;
    if (!server.start(err))
        common::fatal("server failed to start: ", err);
    std::printf("port %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    std::string line;
    while (std::getline(std::cin, line)) {
        std::istringstream cmd(line);
        std::string verb, path;
        cmd >> verb >> path;
        if (verb == "stats") {
            printStats(door, server, cache, stack);
        } else if (verb == "spans" && traced) {
            writeSpans(path, spans);
        } else if (verb == "inproc" && traced) {
            inprocPass(stack, spans, readKeys(path));
        } else if (verb == "quit") {
            break;
        } else {
            Line().add("command", verb).print("error");
        }
    }
    server.stop();
    door.drain();
    return 0;
}

} // namespace perfbench
