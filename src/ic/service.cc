#include "ic/service.hh"

#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "obs/metrics.hh"

namespace toltiers::ic {

IcServiceVersion::IcServiceVersion(
    const Classifier &classifier, const dataset::ImageSet &workload,
    const serving::InstanceType &instance)
    : classifier_(classifier), workload_(workload),
      instance_(instance)
{
}

const std::string &
IcServiceVersion::name() const
{
    return classifier_.name();
}

const std::string &
IcServiceVersion::instanceName() const
{
    return instance_.name;
}

std::size_t
IcServiceVersion::workloadSize() const
{
    return workload_.count();
}

serving::VersionResult
IcServiceVersion::process(std::size_t index) const
{
#if TOLTIERS_OBS_ENABLED
    common::Stopwatch wall;
#endif
    IcResult r = classifier_.classify(workload_, index);

#if TOLTIERS_OBS_ENABLED
    if (obs::metricsEnabled()) {
        wallSeconds_
            .get([&]() -> obs::Histogram & {
                return obs::Registry::global().histogram(
                    "tt_inference_wall_seconds",
                    {{"service", "ic"},
                     {"version", classifier_.name()}},
                    {}, "Measured per-invocation forward wall time");
            })
            .observe(wall.seconds());
    }
#endif

    serving::VersionResult out;
    out.output = r.className;
    out.confidence = r.confidence;
    out.latencySeconds = classifier_.latencyModel().latency(
        r.macs, instance_.speedFactor);
    out.costDollars =
        out.latencySeconds * instance_.pricePerSecond();
    // Top-1 error is binary (paper §II-B).
    out.error = r.label == workload_.labels[index] ? 0.0 : 1.0;
    out.workUnits = r.macs;
    return out;
}

} // namespace toltiers::ic
