/**
 * @file
 * Stage-latency attribution over finished traces.
 *
 * A tier promise is only as strong as the measured distribution
 * behind it, and "where did this request's p99 go?" needs the wall
 * time decomposed into named stages. This module defines the
 * canonical stage vocabulary (admission, cache, route, execute,
 * retry-backoff, hedge-overlap), the interval arithmetic
 * that derives busy/gap/overlap time from a set of attempt
 * intervals, the walker that decomposes one span tree into a
 * StageBreakdown, and the critical-path walker that returns the
 * longest causal chain through the tree.
 *
 * The additive identity the decomposition guarantees: admission +
 * route + cache + execute + retry-backoff equals the root span's
 * duration exactly (hedge-overlap is time covered by
 * two or more concurrent legs — a subset of execute, reported
 * separately, never double-counted into the sum). The live serving
 * path records the same quantities into the per-stage
 * `tt_stage_seconds{stage=...}` histograms, and tools/ttrace
 * re-derives them offline from the JSONL log; both sides share
 * this code so they can never disagree.
 */

#ifndef TOLTIERS_OBS_ATTRIBUTION_HH
#define TOLTIERS_OBS_ATTRIBUTION_HH

#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace toltiers::obs {

/** Canonical stage label values for tt_stage_seconds{stage=...}. */
namespace stage {
inline constexpr const char *kAdmission = "admission";
inline constexpr const char *kCache = "cache";
inline constexpr const char *kRoute = "route";
inline constexpr const char *kExecute = "execute";
inline constexpr const char *kRetryBackoff = "retry-backoff";
inline constexpr const char *kHedgeOverlap = "hedge-overlap";
inline constexpr const char *kNetRead = "net-read";
inline constexpr const char *kNetWrite = "net-write";
} // namespace stage

/** One half-open busy interval [start, end) on a request timeline. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/** Coverage decomposition of a set of (overlapping) intervals. */
struct IntervalStats
{
    double unionSeconds = 0.0;   //!< Covered by at least one leg.
    double gapSeconds = 0.0;     //!< Inside the window, covered by none.
    double overlapSeconds = 0.0; //!< Covered by two or more legs.
    double windowSeconds = 0.0;  //!< max end minus min start.
};

/** Sweep the intervals; empty input yields all zeros. */
IntervalStats intervalStats(std::vector<Interval> intervals);

/** Per-request wall-time decomposition into the named stages. */
struct StageBreakdown
{
    double admission = 0.0;    //!< Front-door queue wait.
    double route = 0.0;        //!< Routing-rule match.
    double cache = 0.0;        //!< Result-cache lookup.
    double execute = 0.0;      //!< Union of attempt busy time.
    double retryBackoff = 0.0; //!< Execution window not covered by
                               //!< any leg (backoff gaps).
    double hedgeOverlap = 0.0; //!< Covered by >= 2 concurrent legs
                               //!< (subset of execute; not additive).

    /** Sum of the additive stages (everything but hedgeOverlap). */
    double total() const
    {
        return admission + route + cache + execute + retryBackoff;
    }
};

/**
 * Decompose one finished trace into its stage breakdown. Stages the
 * request never crossed (no cache, cache hit) read 0.
 * The root is the span with parent 0; a record without one (or
 * with no spans) yields all zeros.
 */
StageBreakdown attributeTrace(const TraceRecord &record);

/**
 * The critical path: the chain from the root span to a leaf,
 * descending at every node into the child whose end time
 * (start + duration) is latest — the longest causal chain through
 * the tree. Pointers alias `record`; empty when the record has no
 * root span.
 */
std::vector<const SpanRecord *>
criticalPath(const TraceRecord &record);

/** Bucket bounds for the stage histograms: 100ns .. 10s, log-spaced
 * (queue waits are microseconds; modeled stage runs are seconds). */
std::vector<double> stageSecondsBounds();

/** The tt_stage_seconds{stage=...} histogram for one stage (a
 * registry lookup: callers resolve it once and keep the handle). */
Histogram &stageHistogram(Registry &registry, const char *stage_name);

} // namespace toltiers::obs

#endif // TOLTIERS_OBS_ATTRIBUTION_HH
