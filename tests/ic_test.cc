/**
 * @file
 * Unit tests for the image-classification substrate: zoo
 * architectures, classifier facade, trainer cache, and the service
 * adapter. Training here uses tiny sets so the suite stays fast.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "common/random.hh"
#include "dataset/synth_images.hh"
#include "ic/service.hh"
#include "ic/trainer.hh"
#include "ic/zoo.hh"
#include "nn/sgd.hh"
#include "serving/instance.hh"

namespace ti = toltiers::ic;
namespace td = toltiers::dataset;
namespace tc = toltiers::common;
namespace sv = toltiers::serving;

// -------------------------------------------------------------------- zoo

TEST(Zoo, FiveSpecsFastestFirst)
{
    auto specs = ti::zooSpecs();
    ASSERT_EQ(specs.size(), 5u);
    EXPECT_EQ(specs.front().name, "mlp-s");
    EXPECT_EQ(specs.back().name, "cnn-l");
    for (const auto &s : specs)
        EXPECT_FALSE(s.roleLabel.empty());
}

TEST(Zoo, AllNetworksBuildAndForward)
{
    tc::Pcg32 rng(1);
    for (const auto &spec : ti::zooSpecs()) {
        auto net = ti::buildZooNetwork(spec.name, 12, 10, rng);
        toltiers::tensor::Tensor in({2, 1, 12, 12});
        auto logits = net.infer(in);
        EXPECT_EQ(logits.dim(0), 2u);
        EXPECT_EQ(logits.dim(1), 10u) << spec.name;
    }
}

TEST(Zoo, MacsLadderIsStrictlyIncreasing)
{
    tc::Pcg32 rng(1);
    std::uint64_t prev = 0;
    for (const auto &spec : ti::zooSpecs()) {
        auto net = ti::buildZooNetwork(spec.name, 12, 10, rng);
        std::uint64_t macs = net.macsPerSample({1, 12, 12});
        EXPECT_GT(macs, prev) << spec.name;
        prev = macs;
    }
}

TEST(Zoo, UnknownNameIsFatal)
{
    tc::Pcg32 rng(1);
    EXPECT_EXIT(ti::buildZooNetwork("resnet-9000", 12, 10, rng),
                testing::ExitedWithCode(1), "unknown zoo");
}

TEST(Zoo, OddImageSizePanics)
{
    tc::Pcg32 rng(1);
    EXPECT_DEATH(ti::buildZooNetwork("cnn-s", 13, 10, rng),
                 "image size");
}

// -------------------------------------------------------------- classifier

TEST(Classifier, LatencyModelAddsOverheadAndCompute)
{
    ti::IcLatencyModel lm;
    lm.overheadSeconds = 0.010;
    lm.secondsPerMac = 1e-8;
    EXPECT_DOUBLE_EQ(lm.latency(1000000), 0.010 + 0.01);
    // GPU speedup applies to compute only.
    EXPECT_DOUBLE_EQ(lm.latency(1000000, 10.0), 0.010 + 0.001);
}

TEST(Classifier, ClassifiesAndReportsConfidence)
{
    tc::Pcg32 rng(2);
    auto net = ti::buildZooNetwork("mlp-s", 12, 10, rng);
    ti::IcVersionSpec spec = ti::zooSpecs()[0];
    ti::Classifier clf(spec, std::move(net), {1, 12, 12});

    td::ImageSetConfig cfg;
    cfg.count = 8;
    auto set = td::buildImageSet(cfg);
    auto res = clf.classify(set, 3);
    EXPECT_LT(res.label, 10u);
    EXPECT_EQ(res.className, td::imageClassName(res.label));
    EXPECT_GT(res.confidence, 0.0);
    EXPECT_GT(res.macs, 0u);
    EXPECT_GT(res.latencySeconds, 0.0);

    auto all = clf.classifyAll(set, 4);
    ASSERT_EQ(all.size(), 8u);
    EXPECT_EQ(all[3].label, res.label);
}

TEST(Classifier, OutOfRangeIndexPanics)
{
    tc::Pcg32 rng(2);
    auto net = ti::buildZooNetwork("mlp-s", 12, 10, rng);
    ti::Classifier clf(ti::zooSpecs()[0], std::move(net),
                       {1, 12, 12});
    td::ImageSetConfig cfg;
    cfg.count = 2;
    auto set = td::buildImageSet(cfg);
    EXPECT_DEATH(clf.classify(set, 5), "out of range");
}

// ----------------------------------------------------------------- trainer

TEST(Trainer, CacheHitSkipsRetraining)
{
    td::ImageSetConfig dc;
    dc.count = 120;
    dc.size = 12;
    auto train = td::buildImageSet(dc);

    std::string cache = testing::TempDir() + "tt_zoo_cache";
    std::filesystem::remove_all(cache);

    ti::ZooTrainConfig zc;
    zc.cacheDir = cache;
    zc.seed = 4;
    zc.epochOverride = 1; // Keep the suite fast.
    auto zoo1 = ti::trainZoo(train, zc);
    ASSERT_EQ(zoo1.size(), 5u);

    // Second call must load identical weights from cache.
    auto zoo2 = ti::trainZoo(train, zc);
    for (std::size_t v = 0; v < zoo1.size(); ++v) {
        auto pa = zoo1[v].network().params();
        auto pb = zoo2[v].network().params();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i)
            for (std::size_t j = 0; j < pa[i]->value.size(); ++j)
                ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
    std::filesystem::remove_all(cache);
}

TEST(Trainer, DifferentSeedDifferentWeights)
{
    td::ImageSetConfig dc;
    dc.count = 60;
    auto train = td::buildImageSet(dc);
    ti::ZooTrainConfig a, b;
    a.seed = 1;
    b.seed = 2;
    a.epochOverride = 1;
    b.epochOverride = 1;
    auto za = ti::trainZoo(train, a);
    auto zb = ti::trainZoo(train, b);
    auto pa = za[0].network().params();
    auto pb = zb[0].network().params();
    bool any_diff = false;
    for (std::size_t j = 0; j < pa[0]->value.size(); ++j)
        any_diff |= pa[0]->value[j] != pb[0]->value[j];
    EXPECT_TRUE(any_diff);
}

TEST(Trainer, DefaultCacheDirRespectsEnv)
{
    // The helper reads TOLTIERS_CACHE when present.
    setenv("TOLTIERS_CACHE", "/tmp/tt_env_cache", 1);
    EXPECT_EQ(ti::defaultCacheDir(), "/tmp/tt_env_cache");
    unsetenv("TOLTIERS_CACHE");
    EXPECT_EQ(ti::defaultCacheDir(), "toltiers_cache");
}

// ----------------------------------------------------------------- service

TEST(IcService, AdapterReportsBinaryErrorAndScaledCost)
{
    tc::Pcg32 rng(3);
    auto net = ti::buildZooNetwork("mlp-s", 12, 10, rng);
    ti::Classifier clf(ti::zooSpecs()[0], std::move(net),
                       {1, 12, 12});
    td::ImageSetConfig dc;
    dc.count = 20;
    auto set = td::buildImageSet(dc);
    sv::InstanceCatalog cat;
    ti::IcServiceVersion svc(clf, set, cat.get("cpu-small"));

    EXPECT_EQ(svc.workloadSize(), 20u);
    EXPECT_EQ(svc.name(), "mlp-s");
    EXPECT_EQ(svc.instanceName(), "cpu-small");

    auto r = svc.process(0);
    EXPECT_TRUE(r.error == 0.0 || r.error == 1.0);
    EXPECT_GT(r.latencySeconds, 0.0);
    EXPECT_NEAR(r.costDollars,
                r.latencySeconds *
                    cat.get("cpu-small").pricePerSecond(),
                1e-15);
    EXPECT_GT(r.workUnits, 0u);
}

TEST(IcService, GpuInstanceShrinksComputeOnly)
{
    tc::Pcg32 rng(3);
    auto cpu_net = ti::buildZooNetwork("cnn-l", 12, 10, rng);
    ti::Classifier clf(ti::zooSpecs()[4], std::move(cpu_net),
                       {1, 12, 12});
    td::ImageSetConfig dc;
    dc.count = 4;
    auto set = td::buildImageSet(dc);
    sv::InstanceCatalog cat;
    ti::IcServiceVersion on_cpu(clf, set, cat.get("cpu-small"));
    ti::IcServiceVersion on_gpu(clf, set, cat.get("gpu"));
    auto rc = on_cpu.process(0);
    auto rg = on_gpu.process(0);
    EXPECT_LT(rg.latencySeconds, rc.latencySeconds);
    // The fixed overhead is not accelerated.
    EXPECT_GT(rg.latencySeconds,
              clf.latencyModel().overheadSeconds - 1e-12);
}
