/**
 * @file
 * The output oracle: TierService::handle's response to every key a
 * workload can send, recorded once in the prepare step, plus the
 * ground-truth error of that response and the reference version's
 * modeled latency and cost per payload.
 *
 * Serving is deterministic per key: version outputs depend only on
 * the payload, race merges are decided by modeled latency, and the
 * cache is keyed by the matched rule's tolerance bucket. The only
 * timing-dependent bit is whether a response came from the cache, and
 * a hit is a fixed function of the miss response (zero modeled
 * latency and cost, not escalated). So every received frame is
 * compared byte for byte with the frame encoded from the oracle for
 * the observed hit flag.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"
#include "stack.hh"

namespace perfbench {

/** The oracle's record of one key. */
struct OracleEntry
{
    bool present = false;
    net::WireStatus status = net::WireStatus::Ok;
    bool escalated = false;
    /** core::PolicyKind of the matched rule. */
    std::uint8_t policy = 0;
    double latency = 0.0;
    double cost = 0.0;
    double confidence = 0.0;
    double ruleTolerance = 0.0;
    /** Ground-truth error of the output (WER or top-1). */
    double error = 0.0;
    std::string output;
    std::string note;
};

/** Wire form of a tier response (the server's encoding). */
net::NetResponse toWire(const core::TierResponse &resp, std::uint64_t id);

class Oracle
{
  public:
    /** Record every key of oracleKeys(kind) on the stack's service,
     * `threads` keys at a time. */
    static Oracle build(Stack &stack, std::size_t threads);

    /** Read the oracle saved in a cache directory; false when it is
     * absent or stale. */
    bool load(StackKind kind, const std::string &cache_dir);
    void save(const std::string &cache_dir) const;

    const OracleEntry &at(std::uint32_t key) const;
    /** Reference version's modeled latency / cost on a payload. */
    double refLatency(std::uint32_t payload) const;
    double refCost(std::uint32_t payload) const;

    /** The frame the server must send for `key` under request id
     * `id`, given whether it was served from the cache. */
    net::Bytes expectedFrame(std::uint32_t key, std::uint64_t id,
                             bool from_cache) const;

    /** True when the received `frame` (decoded as `got`) is byte
     * for byte the frame expected for `key`. */
    bool matches(std::uint32_t key, const net::NetResponse &got,
                 const std::uint8_t *frame, std::size_t len) const;

  private:
    static std::string path(StackKind kind, const std::string &cache_dir);

    StackKind kind_ = StackKind::Asr;
    std::vector<OracleEntry> entries_; //!< Indexed by key.
};

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
