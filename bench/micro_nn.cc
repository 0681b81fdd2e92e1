/**
 * @file
 * MICRO: google-benchmark microbenchmarks of the NN substrate — the
 * forward-pass cost of each zoo architecture (the quantity the IC
 * latency model abstracts as MACs) plus the core matmul/conv
 * kernels.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "ic/zoo.hh"
#include "tensor/ops.hh"

using namespace toltiers;

namespace {

void
BM_ZooForward(benchmark::State &state)
{
    common::Pcg32 rng(1);
    auto specs = ic::zooSpecs();
    const auto &spec = specs[static_cast<std::size_t>(
        state.range(0))];
    auto net = ic::buildZooNetwork(spec.name, 12, 10, rng);
    tensor::Tensor batch({1, 1, 12, 12});
    batch.randomNormal(rng, 1.0f);
    for (auto _ : state) {
        auto logits = net.infer(batch);
        benchmark::DoNotOptimize(logits.data());
    }
    state.SetLabel(spec.name);
    state.counters["MACs"] = benchmark::Counter(static_cast<double>(
        net.macsPerSample(tensor::Shape{1, 12, 12})));
}

void
BM_Matmul(benchmark::State &state)
{
    common::Pcg32 rng(2);
    auto n = static_cast<std::size_t>(state.range(0));
    tensor::Tensor a({n, n}), b({n, n});
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);
    for (auto _ : state) {
        auto c = tensor::matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n * n * n));
}

void
BM_Conv2d(benchmark::State &state)
{
    common::Pcg32 rng(3);
    auto c = static_cast<std::size_t>(state.range(0));
    tensor::ConvGeometry g{3, 1, 1};
    tensor::Tensor in({1, c, 12, 12});
    tensor::Tensor w({c, c, 3, 3});
    tensor::Tensor bias({c});
    in.randomNormal(rng, 1.0f);
    w.randomNormal(rng, 0.1f);
    for (auto _ : state) {
        auto out = tensor::conv2dForward(in, w, bias, g);
        benchmark::DoNotOptimize(out.data());
    }
}

void
BM_Softmax(benchmark::State &state)
{
    common::Pcg32 rng(4);
    tensor::Tensor logits({64, 10});
    logits.randomNormal(rng, 2.0f);
    for (auto _ : state) {
        auto probs = tensor::softmaxRows(logits);
        benchmark::DoNotOptimize(probs.data());
    }
}

} // namespace

BENCHMARK(BM_ZooForward)->DenseRange(0, 4);
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_Conv2d)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_Softmax);

BENCHMARK_MAIN();
