/**
 * @file
 * Offline analysis over parsed trace records.
 *
 * Three views over one trace log, all derived from the same
 * obs/attribution.hh code the live serving path records with (so
 * the offline and online numbers can never disagree):
 *
 *  - per-request: the request's stage breakdown plus its critical
 *    path (the longest causal chain root -> leaf);
 *  - aggregate: per-stage sample counts, totals, and exact
 *    p50/p95/p99 order statistics across every request, with each
 *    stage's share of total attributed wall time;
 *  - Chrome trace_event export: the whole log as a JSON document
 *    loadable in chrome://tracing or Perfetto, one process per
 *    trace id, complete ("X") events carrying span attributes.
 *
 * A stage contributes a sample only when the request actually
 * crossed it (e.g. no execute sample for a cache hit),
 * mirroring what the live tt_stage_seconds histograms record.
 */

#ifndef TOLTIERS_TOOLS_TTRACE_REPORT_HH
#define TOLTIERS_TOOLS_TTRACE_REPORT_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/attribution.hh"
#include "obs/trace.hh"

namespace toltiers::ttrace {

/** Per-stage samples accumulated across requests. */
using StageSamples = std::map<std::string, std::vector<double>>;

/**
 * Collect each record's stage breakdown into per-stage sample
 * vectors (only stages the request crossed; see the file comment).
 */
StageSamples
collectStageSamples(const std::vector<obs::TraceRecord> &records);

/** Exact order-statistic quantile (q in [0,1]) of the samples by
 * linear interpolation; 0 for an empty set. */
double sampleQuantile(std::vector<double> samples, double q);

/** Print one request's breakdown and critical path. */
void printRequestReport(const obs::TraceRecord &record,
                        std::ostream &os);

/** Print the aggregate per-stage attribution table. */
void
printAggregateReport(const std::vector<obs::TraceRecord> &records,
                     std::ostream &os);

/** Write the whole log in Chrome trace_event JSON format. */
void
exportChromeTrace(const std::vector<obs::TraceRecord> &records,
                  std::ostream &os);

} // namespace toltiers::ttrace

#endif // TOLTIERS_TOOLS_TTRACE_REPORT_HH
