#include "stack.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include "asr/service.hh"
#include "asr/versions.hh"
#include "common/logging.hh"
#include "core/policy.hh"
#include "dataset/speech_corpus.hh"
#include "ic/quantize.hh"
#include "ic/service.hh"
#include "ic/trainer.hh"
#include "stats/levenshtein.hh"

namespace perfbench {

std::uint64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

bool
confineToCpus(int first, int count)
{
    if (sysconf(_SC_NPROCESSORS_ONLN) <= static_cast<long>(kServerThreads))
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = first; c < first + count; ++c)
        CPU_SET(c, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
}

std::string
buildCacheDir(const std::string &root)
{
    // FNV-1a over the executable's bytes: the library is linked in
    // statically, so any change to it changes the hash.
    std::ifstream is("/proc/self/exe", std::ios::binary);
    if (!is)
        common::fatal("cannot read /proc/self/exe");
    std::uint64_t h = 1469598103934665603ull;
    char buf[65536];
    while (is.read(buf, sizeof buf) || is.gcount() > 0) {
        for (std::streamsize i = 0; i < is.gcount(); ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ull;
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return root + "/build-" + hex;
}

namespace {

std::string
stampPath(const std::string &dir)
{
    return dir + "/perfbench_prepared";
}

} // namespace

bool
isPrepared(const std::string &dir)
{
    std::ifstream is(stampPath(dir));
    if (!is)
        return false;
    std::string name;
    while (std::getline(is, name))
        if (!std::filesystem::exists(dir + "/" + name))
            return false;
    return true;
}

void
markPrepared(const std::string &dir)
{
    std::string tmp = stampPath(dir) + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        for (const auto &entry : std::filesystem::directory_iterator(dir))
            if (entry.is_regular_file() && entry.path() != tmp)
                os << entry.path().filename().string() << '\n';
        if (!os)
            common::fatal("cannot write ", tmp);
    }
    std::filesystem::rename(tmp, stampPath(dir));
}

void
SpanLog::record(const CallSpan &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::vector<CallSpan>
SpanLog::collect() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
SpanLog::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

TimedVersion::TimedVersion(const serving::ServiceVersion &inner,
                           std::uint32_t index, SpanLog &log)
    : inner_(inner), index_(index), log_(log)
{
}

serving::VersionResult
TimedVersion::process(std::size_t index) const
{
    CallSpan span;
    span.startNs = monoNs();
    serving::VersionResult r = inner_.process(index);
    span.endNs = monoNs();
    span.workUnits = r.workUnits;
    span.payload = static_cast<std::uint32_t>(index);
    span.version = index_;
    log_.record(span);
    return r;
}

namespace {

/**
 * Serializes calls into one version. The library's int8 layers
 * (nn/quantized.hh: QDense, QConv2d) reuse per-layer scratch buffers
 * in forward(), so two concurrent requests on the same "-q8" version
 * race and return corrupted outputs — which the benchmark's oracle
 * catches. Until that is fixed in the library, the benchmark holds a
 * per-version lock around each q8 forward; the wait shows up in
 * ic.forward_us.q8.
 */
class SerializedVersion : public serving::ServiceVersion
{
  public:
    explicit SerializedVersion(std::unique_ptr<serving::ServiceVersion> inner)
        : inner_(std::move(inner))
    {
    }

    const std::string &name() const override { return inner_->name(); }
    const std::string &instanceName() const override
    {
        return inner_->instanceName();
    }
    std::size_t workloadSize() const override
    {
        return inner_->workloadSize();
    }
    serving::VersionResult process(std::size_t index) const override
    {
        std::lock_guard<std::mutex> lock(mu_);
        return inner_->process(index);
    }

  private:
    std::unique_ptr<serving::ServiceVersion> inner_;
    mutable std::mutex mu_;
};

std::string
tracePath(StackKind kind, const std::string &cache_dir)
{
    return cache_dir + "/perfbench_" +
           (kind == StackKind::Asr ? "asr" : "ic") + "_rules.ttm";
}

} // namespace

Stack::Stack(StackKind kind, const std::string &cache_dir,
             SpanLog *spans, bool prepare)
    : kind_(kind)
{
    if (!prepare && !isPrepared(cache_dir)) {
        common::fatal("cache directory '", cache_dir,
                      "' is not prepared for this build; run the "
                      "prepare step first");
    }
    if (kind == StackKind::Asr)
        buildAsr();
    else
        buildIc(cache_dir);

    std::string trace_path = tracePath(kind, cache_dir);
    std::optional<core::MeasurementSet> trace =
        core::MeasurementSet::load(trace_path);
    if (!trace) {
        if (!prepare)
            common::fatal("unreadable rule-training trace ", trace_path);
        trace = collectTrace();
        trace->save(trace_path);
    }
    generateRules(*trace);

    if (spans != nullptr) {
        for (std::size_t v = 0; v < adapters_.size(); ++v) {
            timed_.push_back(std::make_unique<TimedVersion>(
                *adapters_[v], static_cast<std::uint32_t>(v), *spans));
        }
    }
    for (std::size_t v = 0; v < adapters_.size(); ++v) {
        served_.push_back(spans != nullptr ? timed_[v].get()
                                           : adapters_[v].get());
    }
    service_ = newService();
}

std::unique_ptr<core::TierService>
Stack::newService() const
{
    auto service = std::make_unique<core::TierService>(served_);
    service->setRules(serving::Objective::ResponseTime, rtRules_);
    service->setRules(serving::Objective::Cost, costRules_);
    service->setVersionProfiles(profiles_);
    return service;
}

void
Stack::buildAsr()
{
    world_ = std::make_unique<asr::AsrWorld>();
    dataset::SpeechCorpusConfig cc;
    cc.utterances = kAsrUtterances;
    cc.seed = kAsrCorpusSeed;
    corpus_ = dataset::buildSpeechCorpus(*world_, cc);
    const serving::InstanceType &cpu = catalog_.get("cpu-small");
    for (const asr::BeamConfig &cfg : asr::paretoVersions()) {
        engines_.push_back(std::make_unique<asr::AsrEngine>(*world_, cfg));
        adapters_.push_back(std::make_unique<asr::AsrServiceVersion>(
            *engines_.back(), corpus_, cpu));
    }
}

void
Stack::buildIc(const std::string &cache_dir)
{
    dataset::ImageSetConfig dc;
    dc.seed = kIcTrainSeed;
    dc.count = kIcTrainImages;
    train_ = dataset::buildImageSet(dc);
    dc.seed = kIcPayloadSeed;
    dc.count = kIcPayloadImages;
    payloadSet_ = dataset::buildImageSet(dc);

    ic::ZooTrainConfig zc;
    zc.cacheDir = cache_dir;
    std::vector<ic::Classifier> floats = ic::trainZoo(train_, zc);
    std::vector<ic::Classifier> q8 = ic::quantizeZoo(floats, train_);

    // One ladder, fastest modeled latency first: the float cnn-l
    // (the most accurate version) ends up last, as the reference.
    std::vector<ic::Classifier> all;
    std::vector<bool> is_q8;
    for (auto &c : floats) {
        all.push_back(std::move(c));
        is_q8.push_back(false);
    }
    for (auto &c : q8) {
        all.push_back(std::move(c));
        is_q8.push_back(true);
    }
    auto modeled = [&](const ic::Classifier &c) {
        return c.latencyModel().latency(
            c.macsPerImage(), catalog_.get(c.spec().instance).speedFactor);
    };
    std::vector<std::size_t> order(all.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return modeled(all[a]) < modeled(all[b]);
                     });
    zoo_.reserve(all.size());
    for (std::size_t i : order) {
        zoo_.push_back(std::move(all[i]));
        quantized_.push_back(is_q8[i]);
    }
    for (std::size_t v = 0; v < zoo_.size(); ++v) {
        std::unique_ptr<serving::ServiceVersion> adapter =
            std::make_unique<ic::IcServiceVersion>(
                zoo_[v], payloadSet_,
                catalog_.get(zoo_[v].spec().instance));
        if (quantized_[v]) {
            adapter =
                std::make_unique<SerializedVersion>(std::move(adapter));
        }
        adapters_.push_back(std::move(adapter));
    }
}

core::MeasurementSet
Stack::collectTrace() const
{
    std::vector<std::string> names;
    for (const auto &a : adapters_)
        names.push_back(a->name());
    core::MeasurementSet ms(std::move(names));
    std::vector<core::Measurement> row(adapters_.size());
    for (std::size_t r = 0; r < kRuleTrainRows; ++r) {
        for (std::size_t v = 0; v < adapters_.size(); ++v) {
            serving::VersionResult res = adapters_[v]->process(r);
            row[v] = {res.error, res.latencySeconds, res.costDollars,
                      res.confidence};
        }
        ms.addRequest(row);
    }
    return ms;
}

void
Stack::generateRules(const core::MeasurementSet &trace)
{
    core::RuleGenConfig rg;
    rg.referenceVersion = trace.versionCount() - 1;
    // Binary top-1 error is coarse, so IC tolerances are absolute
    // points (as in the IC example); ASR WER degrades relatively.
    rg.mode = kind_ == StackKind::Ic
                  ? core::DegradationMode::AbsolutePoints
                  : core::DegradationMode::Relative;
    core::RoutingRuleGenerator gen(
        trace, core::enumerateCandidates(trace.versionCount()), rg);
    std::vector<double> tolerances = core::toleranceGrid(0.10, 0.01);
    rtRules_ = gen.generate(tolerances, serving::Objective::ResponseTime);
    costRules_ = gen.generate(tolerances, serving::Objective::Cost);
    profiles_ = core::singleVersionProfiles(gen.records());
}

double
Stack::error(std::size_t p, const std::string &output) const
{
    if (kind_ == StackKind::Asr)
        return stats::wordErrorRate(output, corpus_[p].refText);
    return output == dataset::imageClassName(payloadSet_.labels[p])
               ? 0.0
               : 1.0;
}

} // namespace perfbench
