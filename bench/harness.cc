#include "harness.hh"

#include <cstdio>
#include <filesystem>

#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "common/strings.hh"
#include "ic/quantize.hh"
#include "ic/service.hh"
#include "ic/trainer.hh"
#include "obs/export.hh"

namespace toltiers::bench {

using common::inform;

ObsSession::ObsSession(int argc, const char *const *argv,
                       std::vector<std::string> extra_flags)
    : args_(argc, argv,
            common::telemetryFlags(std::move(extra_flags)))
{
    common::applyLogLevel(args_);
}

ObsSession::~ObsSession()
{
    obs::exportForCli(args_);
}

AsrStack::AsrStack(std::size_t utterances, std::uint64_t seed)
    : world_(std::make_unique<asr::AsrWorld>())
{
    dataset::SpeechCorpusConfig cc;
    cc.utterances = utterances;
    cc.seed = seed;
    corpus_ = dataset::buildSpeechCorpus(*world_, cc);

    const auto &cpu = catalog_.get("cpu-small");
    for (const auto &cfg : asr::paretoVersions()) {
        engines_.push_back(
            std::make_unique<asr::AsrEngine>(*world_, cfg));
        services_.push_back(std::make_unique<asr::AsrServiceVersion>(
            *engines_.back(), corpus_, cpu));
        versionPtrs_.push_back(services_.back().get());
    }
}

IcStack::IcStack(std::size_t train_images, std::size_t test_images,
                 std::uint64_t seed, bool include_quantized)
{
    dataset::ImageSetConfig dc;
    dc.seed = seed;
    dc.count = train_images;
    train_ = dataset::buildImageSet(dc);
    dc.seed = seed + 1;
    dc.count = test_images;
    test_ = dataset::buildImageSet(dc);

    ic::ZooTrainConfig zc;
    zc.cacheDir = ic::defaultCacheDir();
    zc.verbose = true;
    zoo_ = ic::trainZoo(train_, zc);

    if (include_quantized) {
        // The int8 siblings join the zoo as ordinary versions; every
        // downstream consumer (measurement collection, rule
        // generation, tiers, front door) sees a ten-version ladder.
        auto quantized = ic::quantizeZoo(zoo_, train_);
        for (auto &q : quantized)
            zoo_.push_back(std::move(q));
    }

    for (const auto &clf : zoo_) {
        services_.push_back(std::make_unique<ic::IcServiceVersion>(
            clf, test_, catalog_.get(clf.spec().instance)));
        versionPtrs_.push_back(services_.back().get());
    }
}

core::MeasurementSet
collectIcMeasurements(const IcStack &stack, std::size_t batch)
{
    const auto &zoo = stack.zoo();
    const auto &workload = stack.testSet();

    std::vector<std::string> names;
    names.reserve(zoo.size());
    for (const auto &clf : zoo)
        names.push_back(clf.name());
    core::MeasurementSet ms(std::move(names));

    std::vector<std::vector<ic::IcResult>> results;
    results.reserve(zoo.size());
    for (const auto &clf : zoo)
        results.push_back(clf.classifyAll(workload, batch));

    std::vector<core::Measurement> row(zoo.size());
    for (std::size_t r = 0; r < workload.count(); ++r) {
        for (std::size_t v = 0; v < zoo.size(); ++v) {
            const ic::IcResult &res = results[v][r];
            const serving::InstanceType &inst =
                stack.catalog().get(zoo[v].spec().instance);
            core::Measurement m;
            m.error = res.label == workload.labels[r] ? 0.0 : 1.0;
            m.latency = zoo[v].latencyModel().latency(
                res.macs, inst.speedFactor);
            m.cost = m.latency * inst.pricePerSecond();
            m.confidence = res.confidence;
            row[v] = m;
        }
        ms.addRequest(row);
    }
    return ms;
}

namespace {

std::string
tracePath(const std::string &kind, std::size_t n, std::uint64_t seed)
{
    std::string dir = ic::defaultCacheDir();
    std::filesystem::create_directories(dir);
    return dir + "/" + kind + "_trace_" + std::to_string(n) + "_" +
           std::to_string(seed) + ".ttm";
}

} // namespace

core::MeasurementSet
asrTrace(const BenchScale &scale)
{
    std::string path =
        tracePath("asr", scale.asrUtterances, scale.asrSeed);
    if (auto cached = core::MeasurementSet::load(path)) {
        inform("loaded ASR trace from ", path);
        return std::move(*cached);
    }
    common::Stopwatch sw;
    AsrStack stack(scale.asrUtterances, scale.asrSeed);
    auto ms = core::MeasurementSet::collect(stack.versions());
    ms.save(path);
    inform("collected ASR trace (", scale.asrUtterances,
           " utterances x ", ms.versionCount(), " versions) in ",
           common::formatFixed(sw.seconds(), 1), "s -> ", path);
    return ms;
}

core::MeasurementSet
icTrace(const BenchScale &scale)
{
    std::string path =
        tracePath("ic", scale.icTestImages, scale.icSeed);
    if (auto cached = core::MeasurementSet::load(path)) {
        inform("loaded IC trace from ", path);
        return std::move(*cached);
    }
    common::Stopwatch sw;
    IcStack stack(scale.icTrainImages, scale.icTestImages,
                  scale.icSeed);
    auto ms = collectIcMeasurements(stack);
    ms.save(path);
    inform("collected IC trace (", scale.icTestImages, " images x ",
           ms.versionCount(), " versions) in ",
           common::formatFixed(sw.seconds(), 1), "s -> ", path);
    return ms;
}

core::MeasurementSet
icTraceQuantized(const BenchScale &scale)
{
    std::string path =
        tracePath("icq8", scale.icTestImages, scale.icSeed);
    if (auto cached = core::MeasurementSet::load(path)) {
        inform("loaded quantized IC trace from ", path);
        return std::move(*cached);
    }
    common::Stopwatch sw;
    IcStack stack(scale.icTrainImages, scale.icTestImages,
                  scale.icSeed, /*include_quantized=*/true);
    auto ms = collectIcMeasurements(stack);
    ms.save(path);
    inform("collected quantized IC trace (", scale.icTestImages,
           " images x ", ms.versionCount(), " versions) in ",
           common::formatFixed(sw.seconds(), 1), "s -> ", path);
    return ms;
}

TraceSplit
splitTrace(const core::MeasurementSet &ms, double train_fraction)
{
    TT_ASSERT(train_fraction > 0.0 && train_fraction < 1.0,
              "train fraction in (0, 1)");
    auto cut = static_cast<std::size_t>(
        train_fraction * static_cast<double>(ms.requestCount()));
    std::vector<std::size_t> train_rows, test_rows;
    for (std::size_t r = 0; r < ms.requestCount(); ++r)
        (r < cut ? train_rows : test_rows).push_back(r);
    return {ms.subset(train_rows), ms.subset(test_rows)};
}

std::vector<std::size_t>
allRows(const core::MeasurementSet &ms)
{
    std::vector<std::size_t> rows(ms.requestCount());
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = i;
    return rows;
}

SpinVersion::SpinVersion(std::string name, std::size_t spin_iters,
                         double cost, std::size_t workload)
    : name_(std::move(name)), instance_("cpu-small"),
      spinIters_(spin_iters), cost_(cost), workload_(workload)
{
}

serving::VersionResult
SpinVersion::process(std::size_t index) const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull + index;
    for (std::size_t i = 0; i < spinIters_; ++i) {
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 27;
    }
    serving::VersionResult r;
    r.output = name_ + "-answer-" + std::to_string(index) + "-" +
               std::to_string(h & 0xf);
    r.confidence = 0.9;
    r.latencySeconds = 1e-8 * static_cast<double>(spinIters_);
    r.costDollars = cost_;
    r.error = 0.0;
    return r;
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n==================================================="
                "=========================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("====================================================="
                "=======================\n\n");
}

} // namespace toltiers::bench
