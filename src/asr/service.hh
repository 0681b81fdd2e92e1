/**
 * @file
 * serving::ServiceVersion adapter for an ASR engine version bound to
 * an utterance workload and an instance type.
 */

#ifndef TOLTIERS_ASR_SERVICE_HH
#define TOLTIERS_ASR_SERVICE_HH

#include <vector>

#include "asr/engine.hh"
#include "obs/metrics.hh"
#include "serving/instance.hh"
#include "serving/service_version.hh"

namespace toltiers::asr {

/** One deployed ASR service version. */
class AsrServiceVersion : public serving::ServiceVersion
{
  public:
    /**
     * All referents must outlive the adapter.
     * @param engine the engine version.
     * @param workload the bound utterance set.
     * @param instance the machine type the version is deployed on.
     */
    AsrServiceVersion(const AsrEngine &engine,
                      const std::vector<Utterance> &workload,
                      const serving::InstanceType &instance);

    const std::string &name() const override;
    const std::string &instanceName() const override;
    std::size_t workloadSize() const override;
    serving::VersionResult process(std::size_t index) const override;

  private:
    const AsrEngine &engine_;
    const std::vector<Utterance> &workload_;
    const serving::InstanceType &instance_;
#if TOLTIERS_OBS_ENABLED
    /** tt_inference_wall_seconds, resolved on the first call. */
    obs::LazyHandle<obs::Histogram> wallSeconds_;
#endif
};

} // namespace toltiers::asr

#endif // TOLTIERS_ASR_SERVICE_HH
