/**
 * @file
 * Classifier: one trained zoo network bound to a latency model —
 * a deployable image-classification service version.
 *
 * Latency model: reference (cpu-small) latency is a fixed
 * per-invocation overhead (request handling, decode, feature prep)
 * plus the network's MACs at a calibrated MAC rate. The overhead
 * term keeps the version latency spread in the ~5x range the paper
 * reports rather than the raw 250x compute spread.
 */

#ifndef TOLTIERS_IC_CLASSIFIER_HH
#define TOLTIERS_IC_CLASSIFIER_HH

#include <memory>
#include <string>

#include "dataset/synth_images.hh"
#include "ic/zoo.hh"
#include "nn/network.hh"

namespace toltiers::ic {

/** Reference-machine latency model for one invocation. */
struct IcLatencyModel
{
    double overheadSeconds = 0.020; //!< Fixed per-invocation cost.
    double secondsPerMac = 4.0e-8;  //!< Compute cost per MAC.

    /**
     * Invocation latency. @param speed_factor accelerates the
     * compute term only — request handling and decode overhead do
     * not ride the accelerator, which is why small models gain
     * nothing from a GPU.
     */
    double
    latency(std::uint64_t macs, double speed_factor = 1.0) const
    {
        return overheadSeconds +
               secondsPerMac * static_cast<double>(macs) /
                   speed_factor;
    }
};

/** One classification outcome. */
struct IcResult
{
    std::size_t label = 0;
    std::string className;
    double confidence = 0.0;     //!< Softmax top-1 probability.
    double margin = 0.0;         //!< Top-1 minus top-2 probability.
    std::uint64_t macs = 0;
    double latencySeconds = 0.0; //!< Reference-machine latency.
};

/** A trained network packaged as a classification service version. */
class Classifier
{
  public:
    /**
     * @param spec zoo member description.
     * @param net trained network (ownership transferred).
     * @param image_shape CHW shape of one input sample.
     */
    Classifier(IcVersionSpec spec, nn::Network net,
               std::vector<std::size_t> image_shape,
               IcLatencyModel latency = IcLatencyModel());

    /** Classify sample `index` of the set. */
    IcResult classify(const dataset::ImageSet &set,
                      std::size_t index) const;

    /** Classify a whole set at once (batched, for evaluation). */
    std::vector<IcResult> classifyAll(const dataset::ImageSet &set,
                                      std::size_t batch = 64) const;

    const IcVersionSpec &spec() const { return spec_; }
    const std::string &name() const { return spec_.name; }
    std::uint64_t macsPerImage() const { return macsPerImage_; }
    const IcLatencyModel &latencyModel() const { return latency_; }
    nn::Network &network() { return net_; }

  private:
    IcVersionSpec spec_;
    nn::Network net_; //!< Served through its const infer().
    IcLatencyModel latency_;
    std::uint64_t macsPerImage_ = 0;
};

} // namespace toltiers::ic

#endif // TOLTIERS_IC_CLASSIFIER_HH
