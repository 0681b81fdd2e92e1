/**
 * @file
 * Lightweight request tracing: per-request timelines of named,
 * nested spans.
 *
 * A Trace is the timeline of one request. Spans carry a start
 * offset and a duration in seconds relative to the trace origin and
 * may nest via parent ids. Two recording styles coexist, because
 * the repo mixes measured and modeled time:
 *
 *  - wall-clock spans (ScopedSpan) measure real elapsed time with
 *    common::Stopwatch — used for the control-plane work the
 *    service actually performs (rule matching, bookkeeping);
 *  - modeled spans (Trace::addSpan with explicit start/duration)
 *    carry the work-unit-derived latencies of the simulated service
 *    versions, so a trace reproduces the policy timeline the tier
 *    semantics define (sequential stages abut, raced stages
 *    overlap).
 *
 * Finished traces accumulate in the Tracer, which can drain them to
 * a JSONL log: one JSON object per line per trace, the schema
 * documented in README.md ("Observability").
 *
 * Causal propagation: a component that *originates* a request's
 * timeline (the front door, or TierService::handle when called
 * directly) starts the trace and creates the root `request` span;
 * everything downstream receives a TraceContext naming the trace,
 * the span to parent under, and the timeline offset at which the
 * callee's work begins. One request therefore yields ONE connected
 * span tree no matter how many layers (admission, cache, tier
 * chain, retry/hedge legs) it crosses. The ttlint rule
 * `span-context-discipline` enforces that request-path functions
 * which accept a TraceContext never open orphan root spans.
 */

#ifndef TOLTIERS_OBS_TRACE_HH
#define TOLTIERS_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.hh"

namespace toltiers::common {
class CliArgs;
} // namespace toltiers::common

namespace toltiers::obs {

/** One completed span within a trace. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root (no parent).
    std::string name;
    double start = 0.0;    //!< Seconds from the trace origin.
    double duration = 0.0; //!< Seconds.
    std::vector<std::pair<std::string, std::string>> attrs;
};

/** One request's finished timeline. */
struct TraceRecord
{
    std::uint64_t traceId = 0;
    std::vector<SpanRecord> spans;

    /** Total of the root spans' durations (parent == 0). */
    double rootDuration() const;
};

class Trace;

/**
 * Propagated span context: which trace to record into, which span
 * to parent new spans under, and where on the root timeline the
 * callee's work begins. A default-constructed context is inactive
 * and every consumer treats it as "tracing off". The context does
 * not own the trace; the originator that started it finishes it.
 */
struct TraceContext
{
    Trace *trace = nullptr;
    std::uint64_t parent = 0; //!< Span id to nest children under.
    double offset = 0.0; //!< Timeline offset of the callee's work.

    bool active() const { return trace != nullptr; }
};

/**
 * Builder for one request's timeline. Not thread-safe; one trace
 * belongs to one request on one thread (sequential handoff across
 * threads — submit thread to pool worker — is fine). The trace
 * origin (offset zero) is the construction instant for wall-clock
 * spans; modeled spans choose their own offsets.
 */
class Trace
{
  public:
    explicit Trace(std::uint64_t trace_id);

    std::uint64_t traceId() const { return record_.traceId; }

    /**
     * Record a modeled span with an explicit timeline position.
     * @return the span id, usable as a parent for nested spans.
     */
    std::uint64_t addSpan(const std::string &name, double start,
                          double duration,
                          std::uint64_t parent = 0);

    /** Attach a key/value attribute to an existing span. */
    void annotate(std::uint64_t span_id, const std::string &key,
                  const std::string &value);

    /**
     * Overwrite an existing span's duration — how an originator
     * closes a root span whose extent only a callee knows (the
     * front door opens `request` at admission; the tier chain sets
     * its final length). panic() on an unknown id.
     */
    void setDuration(std::uint64_t span_id, double duration);

    /** Seconds since the trace origin (for wall-clock spans). */
    double elapsed() const { return clock_.seconds(); }

    /** The record built so far (finalized by Tracer::finish). */
    const TraceRecord &record() const { return record_; }

  private:
    friend class ScopedSpan;
    friend class Tracer;

    TraceRecord record_;
    std::uint64_t nextSpan_ = 1;
    common::Stopwatch clock_;
};

/**
 * RAII wall-clock span: starts at construction, closes at
 * destruction (or close()), measuring real elapsed time against
 * the owning trace's origin.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Trace &trace, const std::string &name,
               std::uint64_t parent = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** The span id (for nesting children under this span). */
    std::uint64_t id() const { return id_; }

    /** Close early; idempotent. */
    void close();

  private:
    Trace &trace_;
    std::uint64_t id_ = 0;
    double start_ = 0.0;
    bool open_ = true;
};

/**
 * Thread-safe collector of finished traces. Assigns trace ids and
 * buffers completed records until they are drained or exported.
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Begin a new trace with a fresh id. */
    Trace startTrace();

    /**
     * Head-based sampling: keep every n-th request's trace. 1 (the
     * default) traces everything, 0 disables tracing entirely. The
     * decision counter is a plain atomic, so which requests are
     * kept is deterministic under a fixed submission order.
     */
    void setSampleEvery(std::uint64_t n);
    std::uint64_t sampleEvery() const;

    /**
     * Consume one sampling decision: true when the caller should
     * start (and record) a trace for the request at hand. The
     * originator calls this exactly once per request.
     */
    bool shouldSample();

    /** File a completed trace. Thread-safe. */
    void finish(Trace &&trace);

    /** Number of buffered traces. */
    std::size_t traceCount() const;

    /** Remove and return every buffered trace. */
    std::vector<TraceRecord> drain();

    /**
     * Write every buffered trace as JSONL (one object per line)
     * without draining. fatal() if the file cannot be opened.
     */
    void exportJsonl(std::ostream &os) const;
    void exportJsonl(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::atomic<std::uint64_t> nextTrace_{1};
    std::atomic<std::uint64_t> sampleEvery_{1};
    std::atomic<std::uint64_t> sampleClock_{0};
    std::vector<TraceRecord> traces_;
};

/**
 * Standard CLI wiring: if the parsed args carry --trace-out=PATH,
 * export the tracer's buffered traces there as JSONL and inform()
 * about it. Returns true if a log was written.
 */
bool exportTracesForCli(const common::CliArgs &args,
                        const Tracer &tracer);

} // namespace toltiers::obs

#endif // TOLTIERS_OBS_TRACE_HH
