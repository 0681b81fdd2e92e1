/**
 * @file
 * Deterministic fault injection for service-version backends.
 *
 * The paper's guarantees assume every routed version answers; a
 * production deployment does not get that luxury — backends error
 * out, hang, straggle, and occasionally return garbage. The
 * FaultSchedule decides, from a seeded stateless hash over
 * (payload, attempt), which fault — if any — strikes a given
 * attempt, so a chaos run is bit-for-bit reproducible and a retry
 * of the same attempt number replays the same fault. The
 * FaultyServiceVersion wraps any ServiceVersion and applies the
 * schedule:
 *
 *  - Failure:  the backend errors after burning a fraction of its
 *              normal latency (reported via AttemptResult::failed);
 *  - Timeout:  the backend hangs — its latency becomes
 *              timeoutLatencySeconds; callers detect it via their
 *              own deadline, as real clients do;
 *  - SlowDown: a straggler — latency and cost scale by
 *              slowdownFactor, the result is fine;
 *  - Corrupt:  a silent wrong answer — the output is garbled and
 *              scored as fully wrong, but the attempt does not
 *              report failure (undetectable without ground truth).
 *
 * Decisions are stateless and thread-safe, so concurrent requests
 * and raced legs can draw their faults at once.
 */

#ifndef TOLTIERS_SERVING_FAULT_HH
#define TOLTIERS_SERVING_FAULT_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "serving/service_version.hh"

namespace toltiers::serving {

/** The failure modes the injector can impose on an attempt. */
enum class FaultKind { None, Failure, Timeout, SlowDown, Corrupt };

/** Printable fault-kind name ("none" / "failure" / ...). */
const char *faultKindName(FaultKind kind);

/** Fault mix and severity of one injected schedule. */
struct FaultSpec
{
    double failureRate = 0.0;  //!< P(explicit backend error).
    double timeoutRate = 0.0;  //!< P(hang until timeoutLatency).
    double slowdownRate = 0.0; //!< P(latency spike).
    double corruptRate = 0.0;  //!< P(silent wrong answer).

    double slowdownFactor = 4.0; //!< Latency multiplier of a spike.
    /** Apparent latency of a hung backend (seconds). */
    double timeoutLatencySeconds = 30.0;
    /** Fraction of normal latency a failing attempt burns before
     * erroring (billed). */
    double failureLatencyFraction = 0.1;

    std::uint64_t seed = 1; //!< Schedule seed.

    /** True when every rate is zero. */
    bool none() const;
};

/**
 * Uniform deviate in [0, 1) from a stateless 64-bit mix of
 * (seed, a, b) — the deterministic coin every fault and jitter
 * decision in the repo flips. splitmix64-based; thread-safe.
 */
double faultHash01(std::uint64_t seed, std::uint64_t a,
                   std::uint64_t b);

/**
 * A seeded, stateless fault plan: which fault strikes attempt
 * `attempt` at payload `payload`. Copyable; decisions depend only
 * on the spec.
 */
class FaultSchedule
{
  public:
    /** The empty schedule: never injects anything. */
    FaultSchedule() = default;

    explicit FaultSchedule(const FaultSpec &spec);

    /** Fault decision for one (payload, attempt) pair. */
    FaultKind decide(std::uint64_t payload,
                     std::uint64_t attempt) const;

    /** Fault decision keyed by three ids (job, stage, attempt). */
    FaultKind decide(std::uint64_t a, std::uint64_t b,
                     std::uint64_t attempt) const;

    const FaultSpec &spec() const { return spec_; }

  private:
    FaultKind pick(double u) const;

    FaultSpec spec_;
};

/**
 * A service version whose backend misbehaves on schedule. Wraps an
 * inner version; processAttempt applies the (payload, attempt)
 * fault decision to the inner result. The plain process() draws a
 * fresh attempt number per call so repeated unannotated calls see
 * the schedule's fault mix.
 */
class FaultyServiceVersion : public ServiceVersion
{
  public:
    /** Referents must outlive the wrapper. */
    FaultyServiceVersion(const ServiceVersion &inner,
                         FaultSchedule schedule);

    const std::string &name() const override;
    const std::string &instanceName() const override;
    std::size_t workloadSize() const override;

    VersionResult process(std::size_t index) const override;

    AttemptResult processAttempt(std::size_t index,
                                 std::uint64_t attempt)
        const override;

    const FaultSchedule &schedule() const { return schedule_; }

    /** Faults injected so far, by kind (None slot unused). */
    std::uint64_t injectedCount(FaultKind kind) const;

  private:
    const ServiceVersion &inner_;
    FaultSchedule schedule_;
    mutable std::atomic<std::uint64_t> autoAttempt_{0};
    mutable std::atomic<std::uint64_t> injected_[5] = {};
};

} // namespace toltiers::serving

#endif // TOLTIERS_SERVING_FAULT_HH
