/**
 * @file
 * The abstract service version: one deployable model configuration
 * bound to a workload and an instance type. Both the ASR engine
 * versions and the IC network versions implement this interface, so
 * the tier layer is model-agnostic — the property the paper
 * emphasizes ("generalizes to many different machine learning
 * applications").
 */

#ifndef TOLTIERS_SERVING_SERVICE_VERSION_HH
#define TOLTIERS_SERVING_SERVICE_VERSION_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace toltiers::serving {

/** The outcome of one version processing one request payload. */
struct VersionResult
{
    std::string output;           //!< Transcript or class name.
    double confidence = 0.0;      //!< Model self-confidence in (0,1).
    double latencySeconds = 0.0;  //!< On this version's instance.
    double costDollars = 0.0;     //!< Node-seconds times node price.
    double error = 0.0;           //!< Vs ground truth (WER or 0/1).
    std::uint64_t workUnits = 0;  //!< Machine-independent work.
};

/**
 * The outcome of one *attempt* against a version. A backend that
 * errors out reports failed = true with the partial latency/cost it
 * burned before erroring; a hung backend simply reports a latency
 * far beyond any deadline (timeouts are detected by the caller's
 * deadline, exactly as in a real client). A silently corrupted
 * result is *not* failed — the caller cannot detect it without
 * ground truth, which is the point.
 */
struct AttemptResult
{
    VersionResult result;
    bool failed = false; //!< Backend returned an explicit error.
};

/** A deployable model version bound to a workload and an instance. */
class ServiceVersion
{
  public:
    virtual ~ServiceVersion() = default;

    /** Version name, e.g. "v3" or "cnn-m". */
    virtual const std::string &name() const = 0;

    /** Instance type the version is deployed on. */
    virtual const std::string &instanceName() const = 0;

    /** Number of payloads in the bound workload. */
    virtual std::size_t workloadSize() const = 0;

    /** Process payload `index` of the bound workload. */
    virtual VersionResult process(std::size_t index) const = 0;

    /**
     * Process one numbered attempt at payload `index`. Reliable
     * versions ignore the attempt number and never fail; the fault
     * injector overrides this to key deterministic fault decisions
     * on (payload, attempt). Must be thread-safe: requests on the
     * serving pool, and the concurrent policies' race legs, call it
     * from several threads at once.
     */
    virtual AttemptResult
    processAttempt(std::size_t index, std::uint64_t attempt) const
    {
        (void)attempt;
        return {process(index), false};
    }
};

} // namespace toltiers::serving

#endif // TOLTIERS_SERVING_SERVICE_VERSION_HH
