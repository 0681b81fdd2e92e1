#include "obs/attribution.hh"

#include <algorithm>
#include <map>

namespace toltiers::obs {

IntervalStats
intervalStats(std::vector<Interval> intervals)
{
    IntervalStats stats;
    if (intervals.empty())
        return stats;

    // Sweep line over the interval endpoints: +1 at each start,
    // -1 at each end, accumulating covered / doubly-covered time
    // between consecutive event positions.
    struct Event
    {
        double t;
        int delta;
    };
    std::vector<Event> events;
    events.reserve(intervals.size() * 2);
    for (const Interval &iv : intervals) {
        double end = std::max(iv.start, iv.end);
        events.push_back({iv.start, +1});
        events.push_back({end, -1});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  return a.delta > b.delta; // Starts before ends.
              });

    int depth = 0;
    double prev = events.front().t;
    for (const Event &e : events) {
        double dt = e.t - prev;
        if (dt > 0.0) {
            if (depth >= 1)
                stats.unionSeconds += dt;
            if (depth >= 2)
                stats.overlapSeconds += dt;
        }
        depth += e.delta;
        prev = e.t;
    }
    stats.windowSeconds = events.back().t - events.front().t;
    stats.gapSeconds =
        std::max(0.0, stats.windowSeconds - stats.unionSeconds);
    return stats;
}

namespace {

/** parent span id -> children, in record order. */
std::map<std::uint64_t, std::vector<const SpanRecord *>>
childMap(const TraceRecord &record)
{
    std::map<std::uint64_t, std::vector<const SpanRecord *>> kids;
    for (const SpanRecord &s : record.spans) {
        if (s.parent != 0)
            kids[s.parent].push_back(&s);
    }
    return kids;
}

/** The root: the first parentless span (the `request` span). */
const SpanRecord *
rootSpan(const TraceRecord &record)
{
    for (const SpanRecord &s : record.spans) {
        if (s.parent == 0)
            return &s;
    }
    return nullptr;
}

/** Collect the leaf descendants of `span` as busy intervals. */
void
collectLeafIntervals(
    const SpanRecord *span,
    const std::map<std::uint64_t,
                   std::vector<const SpanRecord *>> &kids,
    std::vector<Interval> &out)
{
    auto it = kids.find(span->id);
    if (it == kids.end()) {
        out.push_back({span->start, span->start + span->duration});
        return;
    }
    for (const SpanRecord *child : it->second)
        collectLeafIntervals(child, kids, out);
}

} // namespace

StageBreakdown
attributeTrace(const TraceRecord &record)
{
    StageBreakdown bd;
    const SpanRecord *root = rootSpan(record);
    if (root == nullptr)
        return bd;
    auto kids = childMap(record);

    auto it = kids.find(root->id);
    if (it == kids.end())
        return bd;
    for (const SpanRecord *child : it->second) {
        if (child->name == "admission") {
            bd.admission += child->duration;
        } else if (child->name == "batch_wait") {
            bd.batchWait += child->duration;
        } else if (child->name == "rule_match") {
            bd.route += child->duration;
        } else if (child->name == "cache_lookup") {
            bd.cache += child->duration;
        } else if (child->name == "execute") {
            // Busy time is the union of the leaf attempt legs; the
            // uncovered remainder of the execution window is retry
            // backoff; doubly covered time is hedge overlap.
            std::vector<Interval> legs;
            collectLeafIntervals(child, kids, legs);
            if (legs.size() == 1 && legs.front().start ==
                                        child->start &&
                legs.front().end ==
                    child->start + child->duration) {
                // Leaf execute span (no attempt children recorded).
                bd.execute += child->duration;
                continue;
            }
            IntervalStats stats = intervalStats(std::move(legs));
            bd.execute += stats.unionSeconds;
            bd.hedgeOverlap += stats.overlapSeconds;
            bd.retryBackoff +=
                std::max(0.0, child->duration - stats.unionSeconds);
        }
    }
    return bd;
}

std::vector<const SpanRecord *>
criticalPath(const TraceRecord &record)
{
    std::vector<const SpanRecord *> path;
    const SpanRecord *node = rootSpan(record);
    if (node == nullptr)
        return path;
    auto kids = childMap(record);
    while (node != nullptr) {
        path.push_back(node);
        auto it = kids.find(node->id);
        if (it == kids.end())
            break;
        // Descend into the child finishing latest (ties: earlier
        // span id, so the walk is deterministic).
        const SpanRecord *next = nullptr;
        double latest = 0.0;
        for (const SpanRecord *child : it->second) {
            double end = child->start + child->duration;
            if (next == nullptr || end > latest) {
                next = child;
                latest = end;
            }
        }
        node = next;
    }
    return path;
}

std::vector<double>
stageSecondsBounds()
{
    return exponentialBounds(1e-7, 10.0, 17);
}

Histogram &
stageHistogram(Registry &registry, const char *stage_name)
{
    return registry.histogram("tt_stage_seconds",
                              {{"stage", stage_name}},
                              stageSecondsBounds(),
                              "Per-stage share of request wall time");
}

} // namespace toltiers::obs
