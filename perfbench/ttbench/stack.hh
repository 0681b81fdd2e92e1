/**
 * @file
 * The served stacks, assembled only from the library's public
 * headers: the seven real ASR beam-search versions, or the ten-rung
 * IC ladder (five trained float networks plus their int8 "-q8"
 * siblings), each behind a TierService with generated rule tables
 * for both objectives.
 *
 * The prepare step, the oracle and the server build a stack through
 * the same constructor, so they share versions, payloads and rules.
 */

#ifndef PERFBENCH_STACK_HH
#define PERFBENCH_STACK_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "asr/engine.hh"
#include "asr/world.hh"
#include "core/measurement.hh"
#include "core/rule_generator.hh"
#include "core/tier_service.hh"
#include "dataset/synth_images.hh"
#include "ic/classifier.hh"
#include "serving/instance.hh"
#include "serving/service_version.hh"

namespace perfbench {

using namespace toltiers;

enum class StackKind { Asr, Ic };

/** Pinned stack sizes: part of the benchmark's definition. The ASR
 * corpus gives asr_tiers 192000 distinct keys, so one server lifetime
 * runs out of them only above ~16000 req/s (3x today's capacity). */
inline constexpr std::size_t kAsrUtterances = 24000;
inline constexpr std::uint64_t kAsrCorpusSeed = 1234;
inline constexpr std::size_t kIcTrainImages = 2500;
inline constexpr std::uint64_t kIcTrainSeed = 7;
inline constexpr std::size_t kIcPayloadImages = 110000;
inline constexpr std::uint64_t kIcPayloadSeed = 8;
/** Leading payloads whose measurements train the rule generator. */
inline constexpr std::size_t kRuleTrainRows = 2000;
/** Pool threads of the server, never inherited from TT_THREADS. */
inline constexpr std::size_t kServerThreads = 3;

/** Monotonic nanoseconds (CLOCK_MONOTONIC: one clock shared by the
 * generator and server processes). */
std::uint64_t monoNs();

/**
 * Confine the calling process, and every thread it starts later, to
 * CPUs [first, first + count) — only on a host with more than
 * kServerThreads CPUs, where the server takes CPUs [0, kServerThreads)
 * and the generator the next one, so the two never trade cores
 * mid-measurement. True when confined.
 */
bool confineToCpus(int first, int count);

/**
 * The cache directory this build of ttbench owns under `root`:
 * root/build-<hash of the running executable>. Weights, rule-training
 * traces and oracles live there, so a rebuilt benchmark (any change
 * to the library or to ttbench) never reads another build's files.
 */
std::string buildCacheDir(const std::string &root);

/** True when the prepare step completed in `dir` and every file it
 * left there (weights, traces, oracles) is still present. */
bool isPrepared(const std::string &dir);

/** Record the prepare step's completion and the files it left. */
void markPrepared(const std::string &dir);

/** One timed call into a service version. */
struct CallSpan
{
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t workUnits = 0;
    std::uint32_t payload = 0;
    std::uint32_t version = 0;
};

/** In-memory span store, written out when the run ends. */
class SpanLog
{
  public:
    void record(const CallSpan &span);
    std::vector<CallSpan> collect() const;
    void clear();

  private:
    mutable std::mutex mu_;
    std::vector<CallSpan> spans_;
};

/**
 * Benchmark-owned decorator: times every process() call of the
 * wrapped version (processAttempt() reaches it through the base
 * class) and records it as a CallSpan.
 */
class TimedVersion : public serving::ServiceVersion
{
  public:
    TimedVersion(const serving::ServiceVersion &inner,
                 std::uint32_t index, SpanLog &log);

    const std::string &name() const override { return inner_.name(); }
    const std::string &instanceName() const override
    {
        return inner_.instanceName();
    }
    std::size_t workloadSize() const override
    {
        return inner_.workloadSize();
    }
    serving::VersionResult process(std::size_t index) const override;

  private:
    const serving::ServiceVersion &inner_;
    std::uint32_t index_;
    SpanLog &log_;
};

/** Versions, payloads, rules and the tier service, wired. */
class Stack
{
  public:
    /**
     * Build the stack over a build cache directory. Without `prepare`
     * the directory must be prepared (isPrepared()), else this fails
     * loudly rather than train inside a timed boot; with it, missing
     * weights are trained and the trace is collected.
     * @param spans when set, every version is wrapped in a
     * TimedVersion recording into it.
     */
    Stack(StackKind kind, const std::string &cache_dir,
          SpanLog *spans = nullptr, bool prepare = false);

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    StackKind kind() const { return kind_; }
    /** The service as deployed: rules for both objectives and
     * per-version fallback profiles; no cache, no telemetry. */
    core::TierService &service() { return *service_; }
    /** A second service configured like service(). */
    std::unique_ptr<core::TierService> newService() const;
    const std::vector<const serving::ServiceVersion *> &
    versions() const
    {
        return served_;
    }
    /** True for the int8 rungs of the IC ladder. */
    bool quantized(std::size_t version) const
    {
        return version < quantized_.size() && quantized_[version];
    }
    /** Ground-truth error of `output` on payload `p` (WER for ASR,
     * top-1 error for IC). */
    double error(std::size_t p, const std::string &output) const;

  private:
    void buildAsr();
    void buildIc(const std::string &cache_dir);
    core::MeasurementSet collectTrace() const;
    void generateRules(const core::MeasurementSet &trace);

    StackKind kind_;
    serving::InstanceCatalog catalog_;
    // ASR
    std::unique_ptr<asr::AsrWorld> world_;
    std::vector<asr::Utterance> corpus_;
    std::vector<std::unique_ptr<asr::AsrEngine>> engines_;
    // IC
    dataset::ImageSet train_;
    dataset::ImageSet payloadSet_;
    std::vector<ic::Classifier> zoo_;
    std::vector<bool> quantized_;

    std::vector<std::unique_ptr<serving::ServiceVersion>> adapters_;
    std::vector<std::unique_ptr<TimedVersion>> timed_;
    std::vector<const serving::ServiceVersion *> served_;
    std::vector<core::RoutingRule> rtRules_;
    std::vector<core::RoutingRule> costRules_;
    std::vector<core::VersionProfile> profiles_;
    std::unique_ptr<core::TierService> service_;
};

} // namespace perfbench

#endif // PERFBENCH_STACK_HH
