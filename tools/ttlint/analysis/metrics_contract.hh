/**
 * @file
 * Metrics-contract checking: src/ vs docs/OPERATIONS.md.
 *
 * The operations doc is the on-call interface to the `tt_*`
 * metric namespace; a series that exists in code but not in the
 * doc is invisible to whoever gets paged, and a documented series
 * that nothing registers means dashboards and alerts silently
 * read zeros. This checker extracts:
 *
 *  - the registered set — every string literal matching
 *    `tt_[a-z0-9_]+` in `src/` (literals ending in `_` are
 *    prefixes under construction, not series names);
 *  - the documented set — every backticked exact `tt_*` mention
 *    in the doc (wildcard mentions like `tt_rulegen_*` are
 *    neither documented names nor errors; fenced code blocks are
 *    skipped);
 *
 * and reports drift in either direction (rule
 * `metrics-contract`). It also verifies that the doc's
 * conservation equations ("Conservation ..." up to the next
 * blank line) contain an `=` and reference only registered
 * counters — with the three canonical laws (front-door, cache,
 * net accepted-counts) each required to appear whenever their
 * anchor counter is registered.
 */

#ifndef TOLTIERS_TOOLS_TTLINT_ANALYSIS_METRICS_CONTRACT_HH
#define TOLTIERS_TOOLS_TTLINT_ANALYSIS_METRICS_CONTRACT_HH

#include <string>
#include <vector>

#include "ttlint/rules.hh"

namespace ttlint::analysis {

/**
 * Check the metric contract between the `src/` units and the
 * operations doc (`docPath` is the finding anchor for doc-side
 * drift; `docText` its content).
 */
std::vector<Finding>
metricsContractFindings(const std::vector<FileUnit> &units,
                        const std::string &docPath,
                        const std::string &docText);

} // namespace ttlint::analysis

#endif // TOLTIERS_TOOLS_TTLINT_ANALYSIS_METRICS_CONTRACT_HH
