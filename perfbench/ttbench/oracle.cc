#include "oracle.hh"

#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/logging.hh"
#include "workload.hh"

namespace perfbench {

namespace {

/** Leading word of an oracle file: its magic and its stack. The file
 * sits in the build cache directory (buildCacheDir) of the binary that
 * wrote it, so a changed stack or layout never reads it. */
std::uint64_t
fingerprint(StackKind kind)
{
    return 0x7474626f72630000ull + static_cast<std::uint64_t>(kind);
}

template <typename T>
void
put(std::ofstream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof v);
}

void
putString(std::ofstream &os, const std::string &s)
{
    put(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

template <typename T>
bool
get(std::ifstream &is, T &v)
{
    return static_cast<bool>(
        is.read(reinterpret_cast<char *>(&v), sizeof v));
}

bool
getString(std::ifstream &is, std::string &s)
{
    std::uint32_t n = 0;
    if (!get(is, n) || n > (1u << 20))
        return false;
    s.resize(n);
    return static_cast<bool>(
        is.read(s.data(), static_cast<std::streamsize>(n)));
}

} // namespace

net::NetResponse
toWire(const core::TierResponse &resp, std::uint64_t id)
{
    net::NetResponse out;
    out.id = id;
    switch (resp.status) {
      case core::ServeStatus::Ok:
        out.status = net::WireStatus::Ok;
        break;
      case core::ServeStatus::FellBack:
        out.status = net::WireStatus::FellBack;
        break;
      case core::ServeStatus::GuaranteeViolation:
        out.status = net::WireStatus::GuaranteeViolation;
        break;
    }
    out.servedFromCache = resp.servedFromCache;
    out.escalated = resp.escalated;
    out.latencySeconds = resp.latencySeconds;
    out.costDollars = resp.costDollars;
    out.confidence = resp.confidence;
    out.ruleTolerance = resp.ruleTolerance;
    out.traceId = resp.traceId;
    out.output = resp.output;
    out.statusNote = resp.statusNote;
    return out;
}

Oracle
Oracle::build(Stack &stack, std::size_t threads)
{
    // The reference modeled latency/cost per payload is read off the
    // tolerance-0 responses, which the reference version serves.
    const std::size_t ref = stack.versions().size() - 1;
    for (auto obj :
         {serving::Objective::ResponseTime, serving::Objective::Cost}) {
        const core::RoutingRule &r0 = stack.service().ruleFor(0.0, obj);
        if (r0.cfg.kind != core::PolicyKind::Single ||
            r0.cfg.primary != ref)
            common::fatal("tolerance 0 is not served by the reference");
    }

    std::vector<std::uint32_t> keys = oracleKeys(stack.kind());
    Oracle oracle;
    oracle.kind_ = stack.kind();
    oracle.entries_.resize(keys.back() + 1);
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < keys.size(); i = next++) {
            std::uint32_t key = keys[i];
            serving::ServiceRequest req;
            req.id = key;
            req.payload = keyPayload(key);
            req.tier.objective = keyObjective(key);
            req.tier.tolerance = keyTolerance(key);
            core::TierResponse resp = stack.service().handle(req);
            net::NetResponse wire = toWire(resp, 0);
            OracleEntry &e = oracle.entries_[key];
            e.present = true;
            e.status = wire.status;
            e.escalated = wire.escalated;
            e.policy = static_cast<std::uint8_t>(resp.config.kind);
            e.latency = wire.latencySeconds;
            e.cost = wire.costDollars;
            e.confidence = wire.confidence;
            e.ruleTolerance = wire.ruleTolerance;
            e.error = stack.error(req.payload, resp.output);
            e.output = std::move(wire.output);
            e.note = std::move(wire.statusNote);
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    return oracle;
}

std::string
Oracle::path(StackKind kind, const std::string &cache_dir)
{
    return cache_dir + "/perfbench_" +
           (kind == StackKind::Asr ? "asr" : "ic") + "_oracle.bin";
}

void
Oracle::save(const std::string &cache_dir) const
{
    std::string final_path = path(kind_, cache_dir);
    std::string tmp = final_path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        put(os, fingerprint(kind_));
        put(os, static_cast<std::uint64_t>(entries_.size()));
        for (const OracleEntry &e : entries_) {
            put(os, static_cast<std::uint8_t>(e.present));
            if (!e.present)
                continue;
            put(os, static_cast<std::uint8_t>(e.status));
            put(os, static_cast<std::uint8_t>(e.escalated));
            put(os, e.policy);
            for (double d : {e.latency, e.cost, e.confidence,
                             e.ruleTolerance, e.error})
                put(os, d);
            putString(os, e.output);
            putString(os, e.note);
        }
        if (!os)
            common::fatal("cannot write oracle ", tmp);
    }
    std::rename(tmp.c_str(), final_path.c_str());
}

bool
Oracle::load(StackKind kind, const std::string &cache_dir)
{
    std::ifstream is(path(kind, cache_dir), std::ios::binary);
    if (!is)
        return false;
    kind_ = kind;
    std::uint64_t fp = 0, n = 0;
    if (!get(is, fp) || fp != fingerprint(kind) || !get(is, n) ||
        n > (1u << 26))
        return false;
    entries_.assign(n, OracleEntry{});
    for (OracleEntry &e : entries_) {
        std::uint8_t present = 0, status = 0, escalated = 0;
        if (!get(is, present))
            return false;
        if (!present)
            continue;
        e.present = true;
        if (!get(is, status) || !get(is, escalated) ||
            !get(is, e.policy) || !get(is, e.latency) ||
            !get(is, e.cost) || !get(is, e.confidence) ||
            !get(is, e.ruleTolerance) || !get(is, e.error) ||
            !getString(is, e.output) || !getString(is, e.note))
            return false;
        e.status = static_cast<net::WireStatus>(status);
        e.escalated = escalated != 0;
    }
    return true;
}

const OracleEntry &
Oracle::at(std::uint32_t key) const
{
    TT_ASSERT(key < entries_.size() && entries_[key].present,
              "key outside the oracle");
    return entries_[key];
}

double
Oracle::refLatency(std::uint32_t payload) const
{
    return at(makeKey(payload, 0)).latency;
}

double
Oracle::refCost(std::uint32_t payload) const
{
    return at(makeKey(payload, 4)).cost;
}

net::Bytes
Oracle::expectedFrame(std::uint32_t key, std::uint64_t id,
                      bool from_cache) const
{
    const OracleEntry &e = at(key);
    net::NetResponse r;
    r.id = id;
    r.status = e.status;
    r.servedFromCache = from_cache;
    r.escalated = from_cache ? false : e.escalated;
    r.latencySeconds = from_cache ? 0.0 : e.latency;
    r.costDollars = from_cache ? 0.0 : e.cost;
    r.confidence = e.confidence;
    r.ruleTolerance = e.ruleTolerance;
    r.output = e.output;
    r.statusNote = e.note;
    net::Bytes out;
    if (net::encodeResponseFrame(r, out) != net::CodecStatus::Ok)
        common::fatal("oracle response does not encode");
    return out;
}

bool
Oracle::matches(std::uint32_t key, const net::NetResponse &got,
                const std::uint8_t *frame, std::size_t len) const
{
    net::Bytes want = expectedFrame(key, got.id, got.servedFromCache);
    return want.size() == len &&
           std::memcmp(want.data(), frame, len) == 0;
}

} // namespace perfbench
