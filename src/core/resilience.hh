/**
 * @file
 * Fault-tolerant stage execution: the deadline / retry / hedge
 * machinery the tier service wraps around every service-version
 * call.
 *
 * A stage execution is a bounded loop of attempts against one
 * version. Each attempt is capped by the per-stage deadline and by
 * the request's remaining time budget; an attempt that ends in a
 * backend error or outlives its cap is retried after an
 * exponential backoff with deterministic jitter, up to maxRetries
 * extra attempts, never exceeding the budget. A straggling attempt
 * can be hedged: once the (modeled) latency passes hedgeDelay, a
 * duplicate attempt runs (on the calling thread, after the primary)
 * and the earlier successful completion on the modeled clock wins,
 * the loser billed for the time it ran (the paper's
 * early-termination billing, applied to tail-latency insurance).
 * All decisions are keyed on (payload, attempt) through seeded
 * stateless hashes, so a chaos run is reproducible bit-for-bit
 * regardless of thread scheduling.
 *
 * Ordering of the defenses, per attempt round: deadline bounds the
 * wait, hedging bounds the tail within the wait, retry + backoff
 * spends the remaining budget, and when the stage still comes back
 * empty the tier service falls back to a cheaper-but-safe version
 * (see TierService) or reports an explicit guarantee violation.
 */

#ifndef TOLTIERS_CORE_RESILIENCE_HH
#define TOLTIERS_CORE_RESILIENCE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serving/service_version.hh"

namespace toltiers::core {

/** Knobs of the fault-tolerant execution path. */
struct ResiliencePolicy
{
    /** Per-stage deadline in seconds; 0 disables it. */
    double stageDeadlineSeconds = 0.0;
    /** Total per-request time budget in seconds; 0 disables it.
     * Retries, backoffs, and fallbacks all spend from it and the
     * composed response latency never exceeds it. */
    double requestBudgetSeconds = 0.0;
    /** Extra attempts after the first, per stage. */
    std::size_t maxRetries = 0;
    double backoffBaseSeconds = 0.002;
    double backoffMultiplier = 2.0;
    /** Backoff jitter: delay scales by a deterministic factor in
     * [1 - f, 1 + f]. */
    double backoffJitterFraction = 0.2;
    /** Hedge a straggling attempt once it runs this long; 0
     * disables hedging. */
    double hedgeDelaySeconds = 0.0;
    /** Fall back to a tolerance-satisfying version when a stage
     * exhausts its attempts. */
    bool fallbackEnabled = true;
    std::uint64_t jitterSeed = 2024;

    /** True when any defense beyond a bare call is configured. */
    bool
    active() const
    {
        return stageDeadlineSeconds > 0.0 ||
               requestBudgetSeconds > 0.0 || maxRetries > 0 ||
               hedgeDelaySeconds > 0.0;
    }
};

/** One attempt (or hedge leg) within a stage execution. */
struct StageAttempt
{
    std::uint64_t attemptId = 0;
    bool hedge = false;
    bool failed = false;   //!< Backend reported an error.
    bool timedOut = false; //!< Ran past the deadline cap.
    bool won = false;      //!< Produced the stage's result.
    double startSeconds = 0.0;   //!< Offset within the stage.
    double latencySeconds = 0.0; //!< Time the leg ran (truncated).
};

/** Outcome of one fault-tolerant stage execution. */
struct StageOutcome
{
    bool ok = false;
    /** The budget ran out before the attempts did. */
    bool gaveUp = false;
    serving::VersionResult result; //!< Valid when ok.
    /** Total stage time: attempts, hedge waits, and backoffs. */
    double latencySeconds = 0.0;
    /** Everything billed, including failed and hedged legs. */
    double costDollars = 0.0;
    std::size_t retries = 0;  //!< Attempts beyond the first.
    std::size_t hedges = 0;   //!< Hedge legs dispatched.
    std::size_t timeouts = 0; //!< Legs that outlived their cap.
    std::size_t failures = 0; //!< Legs that errored.
    std::vector<StageAttempt> attempts;
};

/**
 * Backoff before retry `retryIndex` (0-based), jittered
 * deterministically by (payload, salt).
 */
double backoffDelay(const ResiliencePolicy &policy,
                    std::size_t retryIndex, std::uint64_t payload,
                    std::uint64_t salt);

/**
 * Run one stage against `version` under the policy.
 * @param budgetRemainingSeconds remaining request budget; pass
 * infinity when no budget is configured. The outcome's
 * latencySeconds never exceeds it.
 * @param attemptSalt namespaces this stage's attempt ids so two
 * stages of one request (or a fallback re-visit of a version)
 * draw independent fault decisions.
 */
StageOutcome executeStage(const serving::ServiceVersion &version,
                          std::size_t payload,
                          const ResiliencePolicy &policy,
                          double budgetRemainingSeconds,
                          std::uint64_t attemptSalt);

} // namespace toltiers::core

#endif // TOLTIERS_CORE_RESILIENCE_HH
