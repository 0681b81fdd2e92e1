/**
 * @file
 * Metrics exporters: Prometheus text exposition, JSON, and CSV
 * renderings of a registry snapshot.
 *
 * The Prometheus format follows the text exposition conventions
 * (HELP/TYPE comments, `_bucket{le=...}` cumulative buckets,
 * `_sum`/`_count` series, label values escaped per the exposition
 * rules) so the snapshot can be scraped or fed to promtool
 * unchanged. JSON and CSV carry the same data plus the estimated
 * p50/p95/p99 for histograms, for humans and spreadsheets.
 *
 * Metric naming: every series the project records uses the `tt_`
 * prefix.
 */

#ifndef TOLTIERS_OBS_EXPORT_HH
#define TOLTIERS_OBS_EXPORT_HH

#include <ostream>
#include <string>

#include "obs/metrics.hh"

namespace toltiers::common {
class CliArgs;
} // namespace toltiers::common

namespace toltiers::obs {

/** Prometheus text exposition of the registry's current state. */
void exportPrometheus(const Registry &registry, std::ostream &os);

/** Escape one label value for the Prometheus text exposition
 * format: backslash, double quote, and newline. */
std::string escapePrometheusLabelValue(const std::string &value);

/** JSON object with one entry per series. */
void exportJson(const Registry &registry, std::ostream &os);

/** Long-format CSV: one row per series. */
void exportCsv(const Registry &registry, std::ostream &os);

/**
 * Write a snapshot to `path`, picking the format from the
 * extension: .json -> JSON, .csv -> CSV, anything else (.prom,
 * .txt, ...) -> Prometheus text. fatal() if the file cannot be
 * opened.
 */
void writeSnapshot(const Registry &registry, const std::string &path);

/**
 * Standard CLI wiring: if the parsed args carry --metrics-out=PATH,
 * write a snapshot there (see writeSnapshot) and inform() about it.
 * Returns true if a snapshot was written.
 */
bool exportForCli(const common::CliArgs &args,
                  const Registry &registry = Registry::global());

} // namespace toltiers::obs

#endif // TOLTIERS_OBS_EXPORT_HH
