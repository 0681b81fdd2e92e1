/**
 * @file
 * Service requests and tier annotations.
 *
 * A Tolerance Tier request (paper §IV-A) is an ordinary service
 * request annotated with two extra headers: `Tolerance` (acceptable
 * relative error degradation vs. the most accurate tier) and
 * `Objective` (what to optimize within that tolerance).
 */

#ifndef TOLTIERS_SERVING_REQUEST_HH
#define TOLTIERS_SERVING_REQUEST_HH

#include <cstddef>
#include <map>
#include <string>

namespace toltiers::serving {

/** What a tier should optimize once the tolerance is satisfied. */
enum class Objective { ResponseTime, Cost };

/** Printable objective name ("response-time" / "cost"). */
const char *objectiveName(Objective obj);

/** Parse an objective name; fatal() on unknown names. */
Objective parseObjective(const std::string &name);

/** The tier annotation carried by a request. */
struct TierAnnotation
{
    double tolerance = 0.0; //!< Relative error degradation bound.
    Objective objective = Objective::ResponseTime;
};

/** One service request. */
struct ServiceRequest
{
    std::size_t id = 0;
    std::size_t payload = 0; //!< Index into the bound workload.
    TierAnnotation tier;
    std::map<std::string, std::string> headers;
    /** Requesting tenant ("" = the anonymous default tenant, which
     * is labelled "anonymous" in metrics and governed by the
     * TenantPolicy's default quota like any other tenant). Carried
     * by the wire protocol and parsed from a `Tenant:` header; the
     * multi-tenant admission layer (ROADMAP item 1, now
     * implemented in serving/tenant.hh) keys token-bucket quotas,
     * weighted-fair dequeue, and the per-tenant tt_* label series
     * off it. */
    std::string tenant;
};

} // namespace toltiers::serving

#endif // TOLTIERS_SERVING_REQUEST_HH
