#include "asr/service.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace toltiers::asr {

AsrServiceVersion::AsrServiceVersion(
    const AsrEngine &engine, const std::vector<Utterance> &workload,
    const serving::InstanceType &instance)
    : engine_(engine), workload_(workload), instance_(instance)
{
}

const std::string &
AsrServiceVersion::name() const
{
    return engine_.name();
}

const std::string &
AsrServiceVersion::instanceName() const
{
    return instance_.name;
}

std::size_t
AsrServiceVersion::workloadSize() const
{
    return workload_.size();
}

serving::VersionResult
AsrServiceVersion::process(std::size_t index) const
{
    TT_ASSERT(index < workload_.size(), "utterance index out of range");
    const Utterance &utt = workload_[index];
    AsrResult r = engine_.transcribe(utt);

#if TOLTIERS_OBS_ENABLED
    if (obs::metricsEnabled()) {
        wallSeconds_
            .get([&]() -> obs::Histogram & {
                return obs::Registry::global().histogram(
                    "tt_inference_wall_seconds",
                    {{"service", "asr"}, {"version", engine_.name()}},
                    {}, "Measured per-invocation decode wall time");
            })
            .observe(r.wallSeconds);
    }
#endif

    serving::VersionResult out;
    out.output = r.decode.text;
    out.confidence = r.confidence;
    out.latencySeconds = instance_.latency(r.latencySeconds);
    out.costDollars = instance_.invocationCost(r.latencySeconds);
    out.error = engine_.wer(r, utt);
    out.workUnits = r.decode.workUnits;
    return out;
}

} // namespace toltiers::asr
