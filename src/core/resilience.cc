#include "core/resilience.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "serving/fault.hh"

namespace toltiers::core {

double
backoffDelay(const ResiliencePolicy &policy, std::size_t retryIndex,
             std::uint64_t payload, std::uint64_t salt)
{
    double delay = policy.backoffBaseSeconds *
                   std::pow(policy.backoffMultiplier,
                            static_cast<double>(retryIndex));
    double f = policy.backoffJitterFraction;
    if (f > 0.0) {
        double u = serving::faultHash01(policy.jitterSeed,
                                        payload ^ salt, retryIndex);
        delay *= 1.0 - f + 2.0 * f * u;
    }
    return delay;
}

namespace {

/** Bill one leg for the time it ran before the round ended. */
double
legBill(const serving::AttemptResult &leg, double start,
        double roundEnd)
{
    double lat = leg.result.latencySeconds;
    double ran = std::clamp(roundEnd - start, 0.0, lat);
    if (lat <= 0.0)
        return ran > 0.0 ? leg.result.costDollars : 0.0;
    return leg.result.costDollars * (ran / lat);
}

} // namespace

StageOutcome
executeStage(const serving::ServiceVersion &version,
             std::size_t payload, const ResiliencePolicy &policy,
             double budgetRemainingSeconds,
             std::uint64_t attemptSalt)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    StageOutcome out;
    double elapsed = 0.0;

    for (std::size_t k = 0;; ++k) {
        double cap = policy.stageDeadlineSeconds > 0.0
                         ? policy.stageDeadlineSeconds
                         : kInf;
        cap = std::min(cap, budgetRemainingSeconds - elapsed);
        if (!(cap > 0.0)) {
            out.gaveUp = true;
            break;
        }

        std::uint64_t attempt_id = attemptSalt + 2 * k;
        serving::AttemptResult prim =
            version.processAttempt(payload, attempt_id);
        double prim_lat = prim.result.latencySeconds;

        // Hedge a straggler: once the attempt (would have) run past
        // hedgeDelay, a duplicate launches. The duplicate draws its
        // own fault decision, so it rescues slowdowns and timeouts
        // alike. It runs here, on the calling thread: the primary
        // has already returned, and the merge below uses modeled
        // time, so another thread would add no concurrency.
        bool have_hedge = false;
        serving::AttemptResult hedge;
        double hedge_completion = kInf;
        if (policy.hedgeDelaySeconds > 0.0 &&
            prim_lat > policy.hedgeDelaySeconds &&
            policy.hedgeDelaySeconds < cap) {
            hedge = version.processAttempt(payload, attempt_id + 1);
            have_hedge = true;
            hedge_completion =
                policy.hedgeDelaySeconds +
                hedge.result.latencySeconds;
            ++out.hedges;
        }

        // The round ends at the earliest successful completion, or
        // when every leg has errored, or at the deadline cap.
        bool prim_ok = !prim.failed;
        bool hedge_ok = have_hedge && !hedge.failed;
        const serving::AttemptResult *winner = nullptr;
        bool winner_is_hedge = false;
        double t_end;
        if (prim_ok && (!hedge_ok || prim_lat <= hedge_completion)) {
            winner = &prim;
            t_end = prim_lat;
        } else if (hedge_ok) {
            winner = &hedge;
            winner_is_hedge = true;
            t_end = hedge_completion;
        } else {
            t_end = have_hedge
                        ? std::max(prim_lat, hedge_completion)
                        : prim_lat;
        }
        bool success = winner != nullptr && t_end <= cap;
        double observed = std::min(t_end, cap);

        out.costDollars += legBill(prim, 0.0, observed);
        if (have_hedge) {
            out.costDollars +=
                legBill(hedge, policy.hedgeDelaySeconds, observed);
        }

        auto record = [&](const serving::AttemptResult &leg,
                          std::uint64_t id, bool is_hedge,
                          double start, double completion,
                          bool leg_won) {
            StageAttempt a;
            a.attemptId = id;
            a.hedge = is_hedge;
            a.failed = leg.failed;
            a.timedOut = !leg.failed && completion > cap;
            a.won = leg_won;
            a.startSeconds = elapsed + start;
            a.latencySeconds =
                std::clamp(observed - start, 0.0,
                           leg.result.latencySeconds);
            if (a.failed)
                ++out.failures;
            if (a.timedOut)
                ++out.timeouts;
            out.attempts.push_back(std::move(a));
        };
        record(prim, attempt_id, false, 0.0, prim_lat,
               success && !winner_is_hedge);
        if (have_hedge) {
            record(hedge, attempt_id + 1, true,
                   policy.hedgeDelaySeconds, hedge_completion,
                   success && winner_is_hedge);
        }

        elapsed += observed;
        if (success) {
            out.ok = true;
            out.result = winner->result;
            break;
        }
        if (k >= policy.maxRetries)
            break;
        double backoff = backoffDelay(policy, k, payload,
                                      attemptSalt);
        if (elapsed + backoff >= budgetRemainingSeconds) {
            out.gaveUp = true;
            break;
        }
        elapsed += backoff;
        ++out.retries;
    }

    out.latencySeconds = elapsed;
    return out;
}

} // namespace toltiers::core
