/**
 * @file
 * Workload definitions and the benchmark's own math: the request key
 * space, seeded key streams, Poisson schedules and nearest-rank
 * percentiles. Everything here is a pure function of its arguments,
 * which is what the self-check pins.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "serving/request.hh"
#include "stack.hh"

namespace perfbench {

// ------------------------------------------------------- key space

/**
 * A request key is (payload, combo); combo c carries objective c / 4
 * (response-time, then cost) and tolerance kTolerances[c % 4]. Each
 * key maps to exactly one result-cache fingerprint, so a key stream
 * without repeats never hits the cache.
 */
inline constexpr std::uint32_t kCombos = 8;
inline constexpr double kTolerances[4] = {0.0, 0.01, 0.05, 0.10};

inline std::uint32_t
makeKey(std::uint32_t payload, std::uint32_t combo)
{
    return payload * kCombos + combo;
}
inline std::uint32_t keyPayload(std::uint32_t key) { return key / kCombos; }
inline std::uint32_t keyCombo(std::uint32_t key) { return key % kCombos; }
serving::Objective keyObjective(std::uint32_t key);
double keyTolerance(std::uint32_t key);

/** IC payload ranges: the hot set, then flood payloads; victims use
 * the first kVictimPayloads flood payloads at nonzero tolerances. */
inline constexpr std::uint32_t kHotPayloads = 1000;
inline constexpr std::uint32_t kVictimPayloads = 4000;

/** Every key any workload on `kind` can send (the oracle's domain). */
std::vector<std::uint32_t> oracleKeys(StackKind kind);

/** An endless seeded stream of request keys. */
class KeySource
{
  public:
    /** Uniform without replacement over `keys` (a seeded shuffle,
     * reshuffled once exhausted, which wrapped() then reports). */
    static KeySource shuffled(std::vector<std::uint32_t> keys,
                              std::uint64_t seed);
    /** Zipf(s)-ranked payloads [0, payloads), payload r having rank
     * r, each with a uniformly drawn combo. */
    static KeySource zipf(std::uint32_t payloads, double s,
                          std::uint64_t seed);

    std::uint32_t next();
    /** True once a shuffled domain ran out and keys began to repeat
     * (never for zipf, which repeats by design). */
    bool wrapped() const { return wrapped_; }

  private:
    explicit KeySource(std::uint64_t seed) : rng_(seed, 0x5eedull) {}

    common::Pcg32 rng_;
    std::vector<std::uint32_t> keys_; //!< Shuffled domain.
    std::size_t cursor_ = 0;
    bool wrapped_ = false;
    std::vector<double> cdf_; //!< Zipf payload CDF (zipf only).
};

// ------------------------------------------------------- schedules

/**
 * Poisson arrival offsets in [0, duration): exponential gaps at
 * `rate`, drawn from one stream of (seed, stream). Bit-identical for
 * identical arguments.
 */
std::vector<double> poissonSchedule(double rate, double duration,
                                    std::uint64_t seed,
                                    std::uint64_t stream);

// ----------------------------------------------------- percentiles

/** Nearest-rank percentile (rank ceil(p/100 n)) of an ascending
 * non-empty sample; p in (0, 100]. */
double percentileSorted(const std::vector<double> &sorted, double p);

/** Median of an unsorted sample (0 for an empty one). */
double median(std::vector<double> values);

// ------------------------------------------------------- workloads

/** One workload's pinned definition. */
struct WorkloadSpec
{
    std::string name;
    StackKind stack = StackKind::Asr;
    /** Weighted-fair admission at the door (ic_flood). */
    bool fair = false;
    /** Offered rate of the pinned-rate phase (total, or per victim
     * tenant on ic_flood). */
    double pinnedRps = 0.0;
    /** The SLO latency limit, ms. */
    double limitMs = 0.0;
    /** Requests kept outstanding by the closed window: t0's flood on
     * ic_flood, the saturation phase elsewhere. */
    std::size_t window = 0;
};

/** The spec for a workload name; nullptr when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The key stream of tenant `tenant` ("" for single-tenant
 * workloads, else "t0".."t2") under a run seed. */
KeySource keySource(const WorkloadSpec &spec, const std::string &tenant,
                    std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
