/**
 * @file
 * serving::ServiceVersion adapter for an image-classification
 * Classifier bound to an image workload and an instance type.
 */

#ifndef TOLTIERS_IC_SERVICE_HH
#define TOLTIERS_IC_SERVICE_HH

#include "dataset/synth_images.hh"
#include "ic/classifier.hh"
#include "obs/metrics.hh"
#include "serving/instance.hh"
#include "serving/service_version.hh"

namespace toltiers::ic {

/** One deployed IC service version. */
class IcServiceVersion : public serving::ServiceVersion
{
  public:
    /**
     * All referents must outlive the adapter.
     * @param classifier the trained version.
     * @param workload the bound request payload set.
     * @param instance the machine type the version is deployed on.
     */
    IcServiceVersion(const Classifier &classifier,
                     const dataset::ImageSet &workload,
                     const serving::InstanceType &instance);

    const std::string &name() const override;
    const std::string &instanceName() const override;
    std::size_t workloadSize() const override;
    serving::VersionResult process(std::size_t index) const override;

  private:
    const Classifier &classifier_;
    const dataset::ImageSet &workload_;
    const serving::InstanceType &instance_;
#if TOLTIERS_OBS_ENABLED
    /** tt_inference_wall_seconds, resolved on the first call. */
    obs::LazyHandle<obs::Histogram> wallSeconds_;
#endif
};

} // namespace toltiers::ic

#endif // TOLTIERS_IC_SERVICE_HH
