/**
 * @file
 * Wire-protocol + network front end suite (ctest label: net).
 *
 * Three layers, pinned from the bottom up:
 *
 *  - Codec: property round-trips over exec::taskRng streams
 *    (decode(encode(x)) == x field for field), and the fuzz
 *    contract — truncated, oversized, bit-flipped, and garbage
 *    frames always come back as a CodecStatus, never a crash, and
 *    a hostile length prefix is refused before it can drive an
 *    allocation.
 *
 *  - Load-generator numerics (ttload_core): exact nearest-rank
 *    percentiles on known distributions, seeded reproducible
 *    Poisson arrival schedules, and the honest hardware-thread cap.
 *
 *  - End-to-end loopback: a real TierServer on an ephemeral port,
 *    eight client threads pushing thousands of requests through
 *    the PR 2 fault harness, with *exact* conservation checked
 *    across both accounting layers (tt_net_accepted_total =
 *    completed + rejected + aborted, and the front door's
 *    submitted = rejected + completed) plus a golden determinism
 *    check: the bytes served over the wire are identical to the
 *    in-process TierService answer for the same payload. These run
 *    under TSan and ASan/UBSan in CI.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/front_door.hh"
#include "core/resilience.hh"
#include "core/tier_service.hh"
#include "exec/pool.hh"
#include "exec/rng.hh"
#include "net/client.hh"
#include "net/demo.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "serving/cache.hh"
#include "serving/fault.hh"
#include "serving/service_version.hh"
#include "serving/tenant.hh"
#include "ttload/loadgen.hh"

namespace co = toltiers::core;
namespace ex = toltiers::exec;
namespace nt = toltiers::net;
namespace ob = toltiers::obs;
namespace sv = toltiers::serving;
namespace tl = toltiers::ttload;
namespace cm = toltiers::common;

namespace {

// ----------------------------------------------------- helpers

/** Random printable string from a test RNG stream. */
std::string
randomString(cm::Pcg32 &rng, std::size_t max_len)
{
    std::size_t len = rng.nextBounded(
        static_cast<std::uint32_t>(max_len + 1));
    std::string s;
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        s.push_back(static_cast<char>(' ' + rng.nextBounded(95)));
    return s;
}

/** Random request from one derived stream. */
sv::ServiceRequest
randomRequest(std::uint64_t seed, std::uint64_t index)
{
    cm::Pcg32 rng = ex::taskRng(seed, index);
    sv::ServiceRequest req;
    req.id = rng.nextU32();
    req.payload = rng.nextBounded(1 << 20);
    req.tier.tolerance = rng.nextDouble();
    req.tier.objective = rng.bernoulli(0.5)
                             ? sv::Objective::ResponseTime
                             : sv::Objective::Cost;
    req.tenant = randomString(rng, 24);
    std::size_t headers = rng.nextBounded(4);
    for (std::size_t h = 0; h < headers; ++h) {
        std::string key = "k" + randomString(rng, 12);
        req.headers[key] = randomString(rng, 32);
    }
    return req;
}

/** Random response from one derived stream. */
nt::NetResponse
randomResponse(std::uint64_t seed, std::uint64_t index)
{
    cm::Pcg32 rng = ex::taskRng(seed, index);
    nt::NetResponse resp;
    resp.id = rng.nextU32();
    resp.status = static_cast<nt::WireStatus>(rng.nextBounded(5));
    resp.servedFromCache = rng.bernoulli(0.3);
    resp.escalated = rng.bernoulli(0.3);
    resp.latencySeconds = rng.nextDouble();
    resp.costDollars = rng.nextDouble() * 10.0;
    resp.confidence = rng.nextDouble();
    resp.ruleTolerance = rng.nextDouble();
    resp.traceId = rng.nextU32();
    resp.output = randomString(rng, 64);
    resp.statusNote = randomString(rng, 32);
    return resp;
}

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

/** Sum of a counter series across labels in a registry. */
std::uint64_t
counterValue(const ob::Registry &registry, const std::string &name)
{
    double total = 0.0;
    for (const auto &snap : registry.snapshot())
        if (snap.name == name)
            total += snap.value;
    return static_cast<std::uint64_t>(total + 0.5);
}

} // namespace

// ------------------------------------------------ codec round-trip

TEST(NetProtocol, RequestFramesRoundTripExactly)
{
    for (std::uint64_t i = 0; i < 200; ++i) {
        sv::ServiceRequest req = randomRequest(42, i);
        nt::Bytes wire;
        ASSERT_EQ(nt::encodeRequestFrame(req, wire),
                  nt::CodecStatus::Ok);

        nt::FrameDecode frame =
            nt::decodeFrame(wire.data(), wire.size());
        ASSERT_TRUE(frame.ok()) << "frame " << i;
        EXPECT_EQ(frame.type, nt::FrameType::Request);
        EXPECT_EQ(frame.frameBytes, wire.size());
        EXPECT_EQ(frame.request.id, req.id);
        EXPECT_EQ(frame.request.payload, req.payload);
        EXPECT_DOUBLE_EQ(frame.request.tier.tolerance,
                         req.tier.tolerance);
        EXPECT_EQ(frame.request.tier.objective, req.tier.objective);
        EXPECT_EQ(frame.request.tenant, req.tenant);
        EXPECT_EQ(frame.request.headers, req.headers);
    }
}

TEST(NetProtocol, ResponseFramesRoundTripExactly)
{
    for (std::uint64_t i = 0; i < 200; ++i) {
        nt::NetResponse resp = randomResponse(43, i);
        nt::Bytes wire;
        ASSERT_EQ(nt::encodeResponseFrame(resp, wire),
                  nt::CodecStatus::Ok);

        nt::FrameDecode frame =
            nt::decodeFrame(wire.data(), wire.size());
        ASSERT_TRUE(frame.ok()) << "frame " << i;
        EXPECT_EQ(frame.type, nt::FrameType::Response);
        EXPECT_EQ(frame.frameBytes, wire.size());
        EXPECT_EQ(frame.response.id, resp.id);
        EXPECT_EQ(frame.response.status, resp.status);
        EXPECT_EQ(frame.response.servedFromCache,
                  resp.servedFromCache);
        EXPECT_EQ(frame.response.escalated, resp.escalated);
        EXPECT_DOUBLE_EQ(frame.response.latencySeconds,
                         resp.latencySeconds);
        EXPECT_DOUBLE_EQ(frame.response.costDollars,
                         resp.costDollars);
        EXPECT_DOUBLE_EQ(frame.response.confidence,
                         resp.confidence);
        EXPECT_DOUBLE_EQ(frame.response.ruleTolerance,
                         resp.ruleTolerance);
        EXPECT_EQ(frame.response.traceId, resp.traceId);
        EXPECT_EQ(frame.response.output, resp.output);
        EXPECT_EQ(frame.response.statusNote, resp.statusNote);
    }
}

TEST(NetProtocol, BackToBackFramesDecodeInSequence)
{
    nt::Bytes wire;
    for (std::uint64_t i = 0; i < 8; ++i) {
        sv::ServiceRequest req = randomRequest(44, i);
        ASSERT_EQ(nt::encodeRequestFrame(req, wire),
                  nt::CodecStatus::Ok);
    }
    std::size_t offset = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        nt::FrameDecode frame = nt::decodeFrame(
            wire.data() + offset, wire.size() - offset);
        ASSERT_TRUE(frame.ok());
        EXPECT_EQ(frame.request.id, randomRequest(44, i).id);
        offset += frame.frameBytes;
    }
    EXPECT_EQ(offset, wire.size());
}

// ------------------------------------------------- codec fuzzing

TEST(NetProtocol, EveryTruncationAsksForMoreBytes)
{
    sv::ServiceRequest req = randomRequest(45, 0);
    nt::Bytes wire;
    ASSERT_EQ(nt::encodeRequestFrame(req, wire),
              nt::CodecStatus::Ok);
    // Every strict prefix of a valid frame is just an incomplete
    // frame: the decoder must ask for more, never misparse.
    for (std::size_t len = 0; len < wire.size(); ++len) {
        nt::FrameDecode frame = nt::decodeFrame(wire.data(), len);
        EXPECT_EQ(frame.status, nt::CodecStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(frame.frameBytes, 0u);
    }
}

TEST(NetProtocol, LyingBodyLengthIsTruncatedOrTrailing)
{
    sv::ServiceRequest req = randomRequest(46, 1);
    nt::Bytes wire;
    ASSERT_EQ(nt::encodeRequestFrame(req, wire),
              nt::CodecStatus::Ok);

    // bodyLen two bytes short: the payload now ends mid-field.
    // (The size guard also tells the optimizer the resize below
    // cannot underflow.)
    ASSERT_GE(wire.size(), nt::kFixedHeaderBytes + 6);
    nt::Bytes shrunk = wire;
    std::size_t cut = shrunk.size() >= 2 ? shrunk.size() - 2 : 0;
    std::uint32_t body =
        static_cast<std::uint32_t>(shrunk.size()) - 4;
    std::uint32_t lying = body - 2;
    std::memcpy(shrunk.data(), &lying, sizeof lying);
    shrunk.resize(cut);
    nt::FrameDecode frame =
        nt::decodeFrame(shrunk.data(), shrunk.size());
    EXPECT_EQ(frame.status, nt::CodecStatus::Truncated);
    EXPECT_EQ(frame.frameBytes, shrunk.size());

    // bodyLen two bytes long, junk appended: trailing bytes.
    nt::Bytes grown = wire;
    lying = body + 2;
    std::memcpy(grown.data(), &lying, sizeof lying);
    grown.push_back(0xaa);
    grown.push_back(0xbb);
    frame = nt::decodeFrame(grown.data(), grown.size());
    EXPECT_EQ(frame.status, nt::CodecStatus::TrailingBytes);
    EXPECT_EQ(frame.frameBytes, grown.size());
}

TEST(NetProtocol, BadMagicVersionAndTypeAreDistinguished)
{
    sv::ServiceRequest req = randomRequest(47, 2);
    nt::Bytes wire;
    ASSERT_EQ(nt::encodeRequestFrame(req, wire),
              nt::CodecStatus::Ok);

    nt::Bytes bad = wire;
    bad[4] = 'X'; // magic0
    EXPECT_EQ(nt::decodeFrame(bad.data(), bad.size()).status,
              nt::CodecStatus::BadMagic);

    bad = wire;
    bad[6] = 99; // version
    EXPECT_EQ(nt::decodeFrame(bad.data(), bad.size()).status,
              nt::CodecStatus::BadVersion);

    bad = wire;
    bad[7] = 7; // type
    EXPECT_EQ(nt::decodeFrame(bad.data(), bad.size()).status,
              nt::CodecStatus::BadType);
}

TEST(NetProtocol, OutOfDomainFieldsAreBadValue)
{
    sv::ServiceRequest req = randomRequest(48, 3);
    req.tenant.clear();
    req.headers.clear();
    nt::Bytes wire;
    ASSERT_EQ(nt::encodeRequestFrame(req, wire),
              nt::CodecStatus::Ok);

    // Payload layout after the 8-byte prefix+header: id@8,
    // payload@16, tolerance@24, objective@32, flags@33.
    nt::Bytes bad = wire;
    double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(bad.data() + 24, &nan, sizeof nan);
    EXPECT_EQ(nt::decodeFrame(bad.data(), bad.size()).status,
              nt::CodecStatus::BadValue);

    bad = wire;
    double two = 2.0;
    std::memcpy(bad.data() + 24, &two, sizeof two);
    EXPECT_EQ(nt::decodeFrame(bad.data(), bad.size()).status,
              nt::CodecStatus::BadValue);

    bad = wire;
    bad[32] = 9; // unknown objective
    EXPECT_EQ(nt::decodeFrame(bad.data(), bad.size()).status,
              nt::CodecStatus::BadValue);

    bad = wire;
    bad[33] = 1; // reserved flags must be zero
    EXPECT_EQ(nt::decodeFrame(bad.data(), bad.size()).status,
              nt::CodecStatus::BadValue);

    // Encode side enforces the same tolerance domain.
    sv::ServiceRequest out_of_domain = req;
    out_of_domain.tier.tolerance = 1.5;
    nt::Bytes none;
    EXPECT_EQ(nt::encodeRequestFrame(out_of_domain, none),
              nt::CodecStatus::BadValue);
    EXPECT_TRUE(none.empty());
}

TEST(NetProtocol, HostileLengthPrefixRefusedBeforeBuffering)
{
    // A 256MB length prefix must be refused immediately — not
    // "NeedMore" (which would make the server buffer toward it).
    nt::Bytes hostile = {0x00, 0x00, 0x00, 0x10, 'T', 'N', 1, 1};
    nt::FrameDecode frame =
        nt::decodeFrame(hostile.data(), hostile.size());
    EXPECT_EQ(frame.status, nt::CodecStatus::Oversized);
    EXPECT_EQ(frame.frameBytes, 0u);

    // The encoder refuses to build such a frame in the first
    // place: >1MB of headers does not fit the frame bound.
    sv::ServiceRequest req;
    req.tier.tolerance = 0.1;
    for (int i = 0; i < 20; ++i)
        req.headers["k" + std::to_string(i)] =
            std::string(60000, 'x');
    nt::Bytes out;
    EXPECT_EQ(nt::encodeRequestFrame(req, out),
              nt::CodecStatus::Oversized);
    EXPECT_TRUE(out.empty());
}

TEST(NetProtocol, BitFlipFuzzNeverCrashesTheDecoder)
{
    sv::ServiceRequest req = randomRequest(49, 4);
    nt::Bytes wire;
    ASSERT_EQ(nt::encodeRequestFrame(req, wire),
              nt::CodecStatus::Ok);
    // Flip every byte (all eight bits) one position at a time: the
    // decoder must always return a status. Flips that land in
    // string bodies legitimately still decode; anything else must
    // surface as a non-Ok status, never a crash or a wild read.
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
        nt::Bytes bad = wire;
        bad[pos] ^= 0xff;
        nt::FrameDecode frame =
            nt::decodeFrame(bad.data(), bad.size());
        (void)frame.status;
    }
    SUCCEED();
}

TEST(NetProtocol, GarbageStreamsAlwaysComeBackWithAStatus)
{
    for (std::uint64_t i = 0; i < 500; ++i) {
        cm::Pcg32 rng = ex::taskRng(50, i);
        nt::Bytes garbage(rng.nextBounded(256));
        for (auto &b : garbage)
            b = static_cast<std::uint8_t>(rng.nextBounded(256));
        nt::FrameDecode frame =
            nt::decodeFrame(garbage.data(), garbage.size());
        // Every outcome is a status; Ok would require the 'T','N'
        // magic plus a coherent payload, which random bytes only
        // produce with negligible probability — but even then it
        // is a *status*, not a crash.
        (void)frame.status;
    }
    SUCCEED();
}

// --------------------------------------------- ttload numerics

TEST(LoadGen, NearestRankPercentilesAreExact)
{
    // 1..100: the nearest-rank pN of a 100-sample is exactly N.
    std::vector<double> sample;
    for (int i = 100; i >= 1; --i)
        sample.push_back(i);
    tl::LatencySummary s = tl::summarizeLatencies(sample);
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_DOUBLE_EQ(s.p95, 95.0);
    EXPECT_DOUBLE_EQ(s.p99, 99.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    EXPECT_EQ(s.count, 100u);

    // Four samples: p50 -> rank ceil(2) = 2nd, p95/p99 -> 4th.
    std::vector<double> four = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(tl::percentileSorted(four, 50.0), 20.0);
    EXPECT_DOUBLE_EQ(tl::percentileSorted(four, 75.0), 30.0);
    EXPECT_DOUBLE_EQ(tl::percentileSorted(four, 95.0), 40.0);
    EXPECT_DOUBLE_EQ(tl::percentileSorted(four, 99.0), 40.0);
    EXPECT_DOUBLE_EQ(tl::percentileSorted(four, 100.0), 40.0);
    // Tiny p never underflows the first rank.
    EXPECT_DOUBLE_EQ(tl::percentileSorted(four, 0.001), 10.0);

    // Single sample: every percentile is that sample.
    std::vector<double> one = {7.5};
    EXPECT_DOUBLE_EQ(tl::percentileSorted(one, 50.0), 7.5);
    EXPECT_DOUBLE_EQ(tl::percentileSorted(one, 99.0), 7.5);

    // Empty sample: defined zeros, not UB.
    tl::LatencySummary empty = tl::summarizeLatencies({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.p99, 0.0);
}

TEST(LoadGen, PoissonScheduleIsSeededAndReproducible)
{
    std::vector<double> a = tl::poissonArrivalTimes(1000.0, 5000, 7);
    std::vector<double> b = tl::poissonArrivalTimes(1000.0, 5000, 7);
    EXPECT_EQ(a, b); // bit-identical replay

    std::vector<double> c = tl::poissonArrivalTimes(1000.0, 5000, 8);
    EXPECT_NE(a, c); // the seed matters

    // Ascending, positive, and the empirical rate is close to the
    // asked-for rate (5000 draws => well within 10%).
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GT(a.front(), 0.0);
    double mean_gap = a.back() / static_cast<double>(a.size());
    EXPECT_NEAR(mean_gap, 1.0 / 1000.0, 0.1 / 1000.0);
}

TEST(LoadGen, ThreadCapIsHonest)
{
    tl::ThreadCap cap = tl::capThreadsAt(8, 4);
    EXPECT_EQ(cap.granted, 4u);
    EXPECT_EQ(cap.hardware, 4u);
    EXPECT_TRUE(cap.capped);

    cap = tl::capThreadsAt(2, 4);
    EXPECT_EQ(cap.granted, 2u);
    EXPECT_FALSE(cap.capped);

    cap = tl::capThreadsAt(4, 4);
    EXPECT_EQ(cap.granted, 4u);
    EXPECT_FALSE(cap.capped);

    // Degenerate inputs clamp to one thread, never zero.
    cap = tl::capThreadsAt(0, 0);
    EXPECT_EQ(cap.granted, 1u);
    EXPECT_EQ(cap.hardware, 1u);

    // The detected count is what capThreads() reasons against, and
    // a grant never exceeds it.
    std::size_t hw = tl::detectedHardwareThreads();
    EXPECT_GE(hw, 1u);
    EXPECT_EQ(tl::capThreads(hw + 5).granted, hw);
    EXPECT_TRUE(tl::capThreads(hw + 5).capped);
}

// --------------------------------------------- loopback e2e

namespace {

/** The wire status a tier-service status travels as. */
nt::WireStatus
wireStatus(co::ServeStatus status)
{
    switch (status) {
      case co::ServeStatus::Ok:
        return nt::WireStatus::Ok;
      case co::ServeStatus::FellBack:
        return nt::WireStatus::FellBack;
      case co::ServeStatus::GuaranteeViolation:
        return nt::WireStatus::GuaranteeViolation;
    }
    return nt::WireStatus::BadRequest;
}

/**
 * Eight closed-loop clients push 500 requests each over 64
 * repeating payloads through a fault-injected ladder fronted by a
 * result cache, so hits (answered on the reader thread) and misses
 * (served on the pool) interleave on every connection. Every answer
 * must equal the uncached TierService::handle answer for the same
 * request, and after stop() every accounting identity — net, door,
 * tenant (when `policy` is set) and cache — holds exactly.
 */
void
runLoopbackStress(const sv::TenantPolicy *policy)
{
    constexpr std::size_t kClients = 8;
    constexpr std::size_t kPerClient = 500;
    constexpr std::size_t kPayloads = 64;

    StubVersion fast("fast", 0.010, 1.0);
    StubVersion mid("mid", 0.030, 3.0);
    StubVersion slow("slow", 0.050, 5.0);
    sv::FaultyServiceVersion faultyFast(
        fast, sv::FaultSchedule(faultMix(0.25, 0.05, 101)));
    sv::FaultyServiceVersion faultyMid(
        mid, sv::FaultSchedule(faultMix(0.25, 0.05, 102)));
    sv::FaultyServiceVersion faultySlow(
        slow, sv::FaultSchedule(faultMix(0.25, 0.05, 103)));

    co::ResiliencePolicy resilience;
    resilience.maxRetries = 1;
    auto configure = [&](co::TierService &svc) {
        svc.setRules(sv::Objective::ResponseTime,
                     {singleRule(0.10, 0)});
        svc.setVersionProfiles({{0, 0.20, 0.010, 1.0},
                                {1, 0.04, 0.030, 3.0},
                                {2, 0.0, 0.050, 5.0}});
        svc.setResilience(resilience);
    };
    co::TierService svc({&faultyFast, &faultyMid, &faultySlow});
    configure(svc);
    // The oracle: the same ladder without a cache. Faults are keyed
    // by (payload, attempt), so its answers are the served ones.
    co::TierService reference({&faultyFast, &faultyMid, &faultySlow});
    configure(reference);
    std::vector<co::TierResponse> expected;
    for (std::size_t p = 0; p < kPayloads; ++p) {
        sv::ServiceRequest req;
        req.payload = p;
        req.tier.tolerance = 0.10;
        expected.push_back(reference.handle(req));
    }

    ob::Registry registry;
    sv::CacheConfig cache_cfg;
    cache_cfg.metrics = &registry;
    sv::ResultCache cache(cache_cfg);
    svc.setCache(&cache);

    ex::ThreadPool pool(4);
    co::FrontDoorConfig door_cfg;
    door_cfg.pool = &pool;
    door_cfg.queueCapacity = 64;
    door_cfg.metrics = &registry;
    door_cfg.tenantPolicy = policy;
    co::TierFrontDoor door(svc, door_cfg);

    nt::ServerConfig server_cfg;
    server_cfg.metrics = &registry;
    nt::TierServer server(door, server_cfg);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    std::uint16_t port = server.port();
    ASSERT_NE(port, 0);

    struct ClientTally
    {
        std::size_t ok = 0;
        std::size_t fellBack = 0;
        std::size_t violations = 0;
        std::size_t rejected = 0;
        std::size_t errors = 0;
        std::size_t cached = 0;
    };
    std::vector<ClientTally> tallies(kClients);

    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ClientTally &tally = tallies[c];
            nt::TierClient client;
            std::string cerr;
            if (!client.connect("127.0.0.1", port, cerr)) {
                tally.errors = kPerClient;
                return;
            }
            for (std::size_t i = 0; i < kPerClient; ++i) {
                sv::ServiceRequest req;
                req.id = c * kPerClient + i;
                req.payload = (c + i) % kPayloads;
                req.tier.tolerance = 0.10;
                req.tenant = "tenant-" + std::to_string(c);
                nt::NetResponse resp;
                if (client.call(req, resp) !=
                    nt::CodecStatus::Ok) {
                    ++tally.errors;
                    continue;
                }
                // Responses echo the request id (closed loop: the
                // one in flight is ours).
                EXPECT_EQ(resp.id, req.id);
                switch (resp.status) {
                  case nt::WireStatus::Ok:
                    ++tally.ok;
                    break;
                  case nt::WireStatus::FellBack:
                    ++tally.fellBack;
                    break;
                  case nt::WireStatus::GuaranteeViolation:
                    ++tally.violations;
                    break;
                  case nt::WireStatus::Rejected:
                    ++tally.rejected;
                    continue;
                  case nt::WireStatus::BadRequest:
                    ++tally.errors;
                    continue;
                }
                // The served answer is the uncached one; a hit
                // only drops the modeled latency and cost.
                const co::TierResponse &want = expected[req.payload];
                EXPECT_EQ(resp.status, wireStatus(want.status));
                EXPECT_EQ(resp.output, want.output);
                EXPECT_EQ(resp.confidence, want.confidence);
                EXPECT_EQ(resp.escalated, want.escalated);
                EXPECT_EQ(resp.ruleTolerance, want.ruleTolerance);
                EXPECT_LE(resp.ruleTolerance, 0.10);
                if (resp.servedFromCache) {
                    ++tally.cached;
                    EXPECT_EQ(resp.latencySeconds, 0.0);
                    EXPECT_EQ(resp.costDollars, 0.0);
                } else {
                    EXPECT_EQ(resp.latencySeconds,
                              want.latencySeconds);
                    EXPECT_EQ(resp.costDollars, want.costDollars);
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    server.stop();
    door.drain();

    ClientTally seen;
    for (const auto &t : tallies) {
        seen.ok += t.ok;
        seen.fellBack += t.fellBack;
        seen.violations += t.violations;
        seen.rejected += t.rejected;
        seen.errors += t.errors;
        seen.cached += t.cached;
    }
    ASSERT_EQ(seen.errors, 0u);

    // Network-layer conservation, exact after stop(): every
    // accepted frame is exactly one of completed / rejected /
    // aborted, and clean closes abort nothing.
    nt::ServerStats net = server.stats();
    EXPECT_EQ(net.connections, kClients);
    EXPECT_EQ(net.accepted, kClients * kPerClient);
    EXPECT_EQ(net.completed + net.rejected + net.aborted,
              net.accepted);
    EXPECT_EQ(net.aborted, 0u);
    EXPECT_EQ(net.badFrames, 0u);
    EXPECT_EQ(net.rejected, seen.rejected);
    EXPECT_EQ(net.completed,
              seen.ok + seen.fellBack + seen.violations);

    // Front-door conservation for the same traffic: the two
    // accounting layers describe one reality, hits included.
    co::FrontDoorStats fd = door.stats();
    EXPECT_EQ(fd.submitted, net.accepted);
    EXPECT_EQ(fd.rejected, net.rejected);
    EXPECT_EQ(fd.completed, net.completed);
    EXPECT_EQ(fd.rejected + fd.completed, fd.submitted);
    EXPECT_EQ(fd.ok + fd.fellBack + fd.violations, fd.completed);
    EXPECT_EQ(fd.ok, seen.ok);
    EXPECT_EQ(fd.fellBack, seen.fellBack);
    EXPECT_EQ(fd.violations, seen.violations);
    EXPECT_EQ(fd.collected, fd.completed);
    EXPECT_EQ(door.inFlight(), 0u);

    // With 25% failures per rung, some degradation must show.
    EXPECT_GT(fd.fellBack + fd.violations, 0u);

    // The cache saw each admitted request exactly once, and every
    // hit it counted reached a client as a cached answer.
    sv::CacheStats cs = cache.stats();
    EXPECT_EQ(cs.lookups, fd.completed);
    EXPECT_EQ(cs.hits + cs.misses, cs.lookups);
    EXPECT_EQ(cs.hits, seen.cached);
    EXPECT_GT(cs.hits, 0u);
    EXPECT_GT(cs.misses, 0u);

    // Per-tenant conservation, summing to the door's totals.
    std::vector<sv::TenantStats> rows = door.tenantStats();
    if (policy != nullptr) {
        EXPECT_EQ(rows.size(), kClients);
        std::uint64_t submitted = 0, refused = 0, completed = 0;
        for (const auto &row : rows) {
            EXPECT_EQ(row.submitted,
                      row.rejected + row.shed + row.completed)
                << "tenant " << row.tenant;
            EXPECT_EQ(row.queued, 0u) << "tenant " << row.tenant;
            submitted += row.submitted;
            refused += row.rejected + row.shed;
            completed += row.completed;
        }
        EXPECT_EQ(submitted, fd.submitted);
        EXPECT_EQ(refused, fd.rejected);
        EXPECT_EQ(completed, fd.completed);
        EXPECT_EQ(counterValue(registry, "tt_tenant_submitted_total"),
                  fd.submitted);
        EXPECT_EQ(counterValue(registry, "tt_tenant_completed_total"),
                  fd.completed);
    } else {
        EXPECT_TRUE(rows.empty());
    }

    // The registry mirrors agree with every accounting layer.
    EXPECT_EQ(counterValue(registry, "tt_net_connections_total"),
              net.connections);
    EXPECT_EQ(counterValue(registry, "tt_net_accepted_total"),
              net.accepted);
    EXPECT_EQ(counterValue(registry, "tt_net_completed_total"),
              net.completed);
    EXPECT_EQ(counterValue(registry, "tt_net_rejected_total"),
              net.rejected);
    EXPECT_EQ(counterValue(registry, "tt_net_aborted_total"), 0u);
    EXPECT_EQ(counterValue(registry, "tt_net_bad_frames_total"),
              0u);
    EXPECT_EQ(counterValue(registry,
                           "tt_frontdoor_submitted_total"),
              fd.submitted);
    EXPECT_EQ(counterValue(registry,
                           "tt_frontdoor_completed_total"),
              fd.completed);
    EXPECT_EQ(counterValue(registry, "tt_cache_lookups_total"),
              cs.lookups);
    EXPECT_EQ(counterValue(registry, "tt_cache_hits_total"), cs.hits);
    EXPECT_EQ(registry.histogram("tt_frontdoor_queue_wait_seconds")
                  .count(),
              fd.completed);
    EXPECT_GT(counterValue(registry, "tt_net_bytes_read_total"),
              0u);
    EXPECT_EQ(counterValue(registry, "tt_net_bytes_written_total"),
              net.bytesWritten);
    EXPECT_GT(net.bytesWritten, 0u);
}

} // namespace

TEST(NetE2E, LoopbackStressConservesEveryRequest)
{
    runLoopbackStress(nullptr);
}

TEST(NetE2E, LoopbackStressWithTenantsConservesEveryRequest)
{
    // Weighted-fair admission: hits spend quota but never enter the
    // fair queue. One tenant's tight quota makes its hits and misses
    // alike draw rejections.
    sv::TenantPolicy policy;
    sv::TenantQuota tight;
    tight.ratePerSecond = 2000.0;
    tight.burst = 4.0;
    policy.tenants["tenant-0"] = tight;
    runLoopbackStress(&policy);
}

namespace {

/** A version whose first call blocks until the test opens it. */
class GateVersion : public sv::ServiceVersion
{
  public:
    GateVersion(std::atomic<bool> &entered, std::atomic<bool> &open)
        : entered_(entered), open_(open)
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &instanceName() const override
    {
        return name_;
    }
    std::size_t workloadSize() const override { return 64; }

    sv::VersionResult
    process(std::size_t index) const override
    {
        entered_.store(true);
        while (!open_.load())
            std::this_thread::yield();
        sv::VersionResult r;
        r.output = "gate-" + std::to_string(index);
        r.confidence = 0.9;
        r.latencySeconds = 0.01;
        return r;
    }

  private:
    std::string name_ = "gate";
    std::atomic<bool> &entered_;
    std::atomic<bool> &open_;
};

} // namespace

TEST(NetE2E, CoalescedResponsesToAResetPeerCountAsAborted)
{
    // A worker-less pool serves every request inline on the reader
    // thread, so a read pass's responses all wait in its buffer for
    // one send. The first request holds the pass open until the
    // client has reset the connection; that send then fails, and
    // every request in the buffer must settle aborted.
    std::atomic<bool> entered{false};
    std::atomic<bool> open{false};
    GateVersion gate(entered, open);
    co::TierService svc({&gate});
    svc.setRules(sv::Objective::ResponseTime, {singleRule(0.10, 0)});
    ex::ThreadPool pool(1);
    co::FrontDoorConfig door_cfg;
    door_cfg.pool = &pool;
    co::TierFrontDoor door(svc, door_cfg);
    nt::TierServer server(door, nt::ServerConfig());
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    int fd = nt::tcpConnect("127.0.0.1", server.port(), err);
    ASSERT_GE(fd, 0) << err;
    nt::Bytes wire;
    for (std::uint64_t i = 0; i < 8; ++i) {
        sv::ServiceRequest req;
        req.id = i;
        req.payload = i;
        req.tier.tolerance = 0.10;
        ASSERT_EQ(nt::encodeRequestFrame(req, wire),
                  nt::CodecStatus::Ok);
    }
    ASSERT_TRUE(nt::sendAll(fd, wire.data(), wire.size()));
    while (!entered.load())
        std::this_thread::yield();
    // An abortive close: the peer's RST marks the server's socket
    // reset, so its next send fails.
    linger reset{1, 0};
    ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset,
                         sizeof(reset)),
              0);
    ::close(fd);
    // Loopback delivers the RST within the close(); the pause only
    // covers a descheduled softirq on a loaded machine.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    open.store(true);
    server.stop();

    nt::ServerStats net = server.stats();
    EXPECT_GE(net.accepted, 1u);
    EXPECT_EQ(net.aborted, net.accepted);
    EXPECT_EQ(net.completed, 0u);
    EXPECT_EQ(net.rejected, 0u);
    EXPECT_EQ(net.bytesWritten, 0u);
    // The door produced every response; only the wire lost them.
    EXPECT_EQ(door.stats().completed, net.accepted);
}

TEST(NetE2E, WireAnswersMatchInProcessByteForByte)
{
    // The network front end must be a transport, not a transform:
    // for the same payload and tolerance, the bytes a client gets
    // over the wire equal the in-process TierService answer.
    nt::DemoStackConfig cfg;
    cfg.spinIters = 200; // Keep the golden sweep quick.
    nt::DemoStack stack(cfg);
    std::string err;
    ASSERT_TRUE(stack.start(err)) << err;

    nt::TierClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", stack.port(), err))
        << err;

    for (double tolerance : {0.0, 0.02, 0.05}) {
        for (std::size_t payload = 0; payload < 16; ++payload) {
            sv::ServiceRequest req;
            req.id = payload;
            req.payload = payload;
            req.tier.tolerance = tolerance;

            nt::NetResponse wire;
            ASSERT_EQ(client.call(req, wire), nt::CodecStatus::Ok);

            co::TierResponse local = stack.service().handle(req);
            EXPECT_EQ(wire.output, local.output)
                << "tolerance " << tolerance << " payload "
                << payload;
            EXPECT_EQ(wire.escalated, local.escalated);
            EXPECT_DOUBLE_EQ(wire.ruleTolerance,
                             local.ruleTolerance);
            EXPECT_DOUBLE_EQ(wire.confidence, local.confidence);
        }
    }
    client.close();
    stack.stop();
}

TEST(NetE2E, PipelinedResponsesComeBackTaggedById)
{
    nt::DemoStackConfig cfg;
    cfg.spinIters = 100;
    nt::DemoStack stack(cfg);
    std::string err;
    ASSERT_TRUE(stack.start(err)) << err;

    nt::TierClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", stack.port(), err))
        << err;

    // Ten requests down the pipe before reading anything back:
    // responses may arrive in any order, but ids pair each with
    // its request exactly once.
    constexpr std::uint64_t kBase = 9000;
    for (std::uint64_t i = 0; i < 10; ++i) {
        sv::ServiceRequest req;
        req.id = kBase + i;
        req.payload = i;
        req.tier.tolerance = 0.05;
        ASSERT_EQ(client.send(req), nt::CodecStatus::Ok);
    }
    std::set<std::uint64_t> ids;
    for (int i = 0; i < 10; ++i) {
        nt::NetResponse resp;
        ASSERT_EQ(client.recv(resp), nt::CodecStatus::Ok);
        EXPECT_NE(resp.status, nt::WireStatus::BadRequest);
        ids.insert(resp.id);
    }
    EXPECT_EQ(ids.size(), 10u);
    EXPECT_EQ(*ids.begin(), kBase);
    EXPECT_EQ(*ids.rbegin(), kBase + 9);

    client.close();
    stack.stop();
}

TEST(NetE2E, MalformedFramesAreAnsweredCountedAndCutOff)
{
    nt::DemoStackConfig cfg;
    cfg.spinIters = 100;
    nt::DemoStack stack(cfg);
    std::string err;
    ASSERT_TRUE(stack.start(err)) << err;

    // Garbage with a believable length prefix: the server answers
    // BadRequest, counts a bad frame, and closes — it never dies,
    // and accounting stays conserved (nothing was accepted).
    {
        nt::TierClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", stack.port(), err))
            << err;
        nt::Bytes junk = {0x08, 0x00, 0x00, 0x00, 'X', 'X',
                          0x01, 0x01, 0xde, 0xad, 0xbe, 0xef};
        ASSERT_TRUE(client.sendRaw(junk.data(), junk.size()));
        nt::NetResponse resp;
        ASSERT_EQ(client.recv(resp), nt::CodecStatus::Ok);
        EXPECT_EQ(resp.status, nt::WireStatus::BadRequest);
        EXPECT_EQ(resp.statusNote, "bad-magic");
        // Framing is untrusted after a bad frame: the server hangs
        // up rather than guess at the next boundary.
        EXPECT_EQ(client.recv(resp), nt::CodecStatus::Closed);
    }

    // A hostile length prefix (claims 256MB) is refused without
    // buffering and with the same polite BadRequest.
    {
        nt::TierClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", stack.port(), err))
            << err;
        nt::Bytes hostile = {0x00, 0x00, 0x00, 0x10,
                             'T',  'N',  0x01, 0x01};
        ASSERT_TRUE(client.sendRaw(hostile.data(),
                                   hostile.size()));
        nt::NetResponse resp;
        ASSERT_EQ(client.recv(resp), nt::CodecStatus::Ok);
        EXPECT_EQ(resp.status, nt::WireStatus::BadRequest);
        EXPECT_EQ(resp.statusNote, "oversized");
        EXPECT_EQ(client.recv(resp), nt::CodecStatus::Closed);
    }

    stack.stop();
    nt::ServerStats net = stack.server().stats();
    EXPECT_EQ(net.badFrames, 2u);
    EXPECT_EQ(net.accepted, 0u);
    EXPECT_EQ(net.completed + net.rejected + net.aborted, 0u);
}

TEST(NetE2E, ClosedLoopRunnerAccountsEveryRequest)
{
    nt::DemoStackConfig cfg;
    cfg.spinIters = 100;
    nt::DemoStack stack(cfg);
    std::string err;
    ASSERT_TRUE(stack.start(err)) << err;

    tl::LoadConfig load;
    load.port = stack.port();
    load.threads = 2; // The runner trusts the caller's cap.
    load.requests = 301;
    load.tolerance = 0.05;
    load.sloSeconds = 10.0; // Generous: everything within.
    tl::LoadReport report = tl::runClosedLoop(load);

    EXPECT_FALSE(report.openLoop);
    EXPECT_EQ(report.attempted, 301u);
    EXPECT_EQ(report.transportErrors, 0u);
    EXPECT_EQ(report.responses(), 301u);
    EXPECT_EQ(report.latency.count, 301u);
    EXPECT_GT(report.achievedRps, 0.0);
    EXPECT_DOUBLE_EQ(report.sloAttainment, 1.0);
    EXPECT_LE(report.latency.p50, report.latency.p95);
    EXPECT_LE(report.latency.p95, report.latency.p99);
    EXPECT_LE(report.latency.p99, report.latency.max);

    stack.stop();
}

TEST(NetE2E, OpenLoopRunnerHoldsToItsSchedule)
{
    nt::DemoStackConfig cfg;
    cfg.spinIters = 100;
    nt::DemoStack stack(cfg);
    std::string err;
    ASSERT_TRUE(stack.start(err)) << err;

    tl::LoadConfig load;
    load.port = stack.port();
    load.threads = 1;
    load.requests = 200;
    load.offeredRps = 5000.0;
    tl::LoadReport report = tl::runOpenLoop(load);

    EXPECT_TRUE(report.openLoop);
    EXPECT_EQ(report.attempted, 200u);
    EXPECT_EQ(report.transportErrors, 0u);
    EXPECT_EQ(report.responses(), 200u);
    EXPECT_DOUBLE_EQ(report.offeredRps, 5000.0);
    // The wall clock must cover the schedule: 200 arrivals at
    // 5000/s span ~40ms of offered time.
    EXPECT_GE(report.wallSeconds, 0.02);

    stack.stop();
}

TEST(NetE2E, ServerRestartsCleanlyAndStopIsIdempotent)
{
    nt::DemoStackConfig cfg;
    cfg.spinIters = 100;
    nt::DemoStack stack(cfg);
    std::string err;
    ASSERT_TRUE(stack.start(err)) << err;
    EXPECT_TRUE(stack.server().running());

    nt::TierClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", stack.port(), err))
        << err;
    sv::ServiceRequest req;
    req.payload = 1;
    req.tier.tolerance = 0.05;
    nt::NetResponse resp;
    ASSERT_EQ(client.call(req, resp), nt::CodecStatus::Ok);

    stack.server().stop();
    stack.server().stop(); // Idempotent.
    EXPECT_FALSE(stack.server().running());

    // The socket is gone: the client sees a closed stream.
    EXPECT_EQ(client.recv(resp), nt::CodecStatus::Closed);

    nt::ServerStats net = stack.server().stats();
    EXPECT_EQ(net.accepted,
              net.completed + net.rejected + net.aborted);
    stack.stop();
}
