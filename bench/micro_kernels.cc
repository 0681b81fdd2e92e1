/**
 * @file
 * BENCH-K: inference-kernel microbenchmark -> BENCH_kernels.json.
 *
 * Four sections:
 *
 *  - served: one pass over the six GEMMs a batch-1 cnn-l forward
 *    issues (the reference version that tolerance-0 requests run),
 *    timed for the shipping gemmF32 and the scalar Reference oracle,
 *    best of several alternating rounds.
 *  - gemm: measured GFLOP/s of both float GEMMs plus the int8 GEMM
 *    (GOP/s) over square sizes. Reported, not gated: at -O3 the
 *    compiler vectorizes the scalar oracle itself, so square sizes
 *    say little about the shapes the zoo serves.
 *  - inference: per-inference forward latency of every zoo
 *    architecture, float vs int8-quantized, both measured wall-clock
 *    and the deterministic modeled service latency (overhead +
 *    MACs x rate; the int8 rate is kInt8MacRateFactor x the float
 *    rate — see ic/quantize.hh).
 *  - sanity: with --assert-speedup=F the binary exits nonzero unless
 *    gemmF32 runs the served shapes at least F x faster than the
 *    Reference and every q8 version's modeled latency is strictly
 *    below its float parent's (CI gates on this).
 *
 * Weights are random: kernel latency does not depend on weight
 * values, and skipping training keeps the benchmark fast enough for
 * a CI job.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "dataset/synth_images.hh"
#include "exec/rng.hh"
#include "harness.hh"
#include "ic/quantize.hh"
#include "ic/zoo.hh"
#include "nn/quantized.hh"
#include "tensor/kernels/kernels.hh"

using namespace toltiers;

namespace {

constexpr std::size_t kImageSize = 12;

std::vector<float>
randomBuffer(std::size_t n, std::uint64_t task)
{
    common::Pcg32 rng = exec::taskRng(4242, task);
    std::vector<float> out(n);
    for (float &x : out)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return out;
}

/** Seconds per call of fn, repeated until the clock is trustworthy. */
template <typename Fn>
double
timeIt(Fn &&fn)
{
    fn(); // warmup
    std::size_t reps = 1;
    for (;;) {
        common::Stopwatch sw;
        for (std::size_t r = 0; r < reps; ++r)
            fn();
        double secs = sw.seconds();
        if (secs > 0.2 || reps >= 1u << 14)
            return secs / static_cast<double>(reps);
        reps *= 4;
    }
}

struct GemmShape
{
    std::size_t m, k, n;
};

/**
 * The GEMMs of one batch-1 cnn-l forward on a 12x12 image, as
 * m x k x n: its four convolutions (filters x C*3*3 x output pixels)
 * and its two dense layers (1 x in x out).
 */
const GemmShape kServedShapes[] = {
    {16, 9, 144}, {32, 144, 144}, {48, 288, 36},
    {48, 432, 36}, {1, 432, 96},  {1, 96, 10},
};

struct ServedSample
{
    double referenceUs = 0.0; //!< Best pass, scalar Reference.
    double shippingUs = 0.0;  //!< Best pass, gemmF32.
    double speedup = 0.0;
};

ServedSample
benchServed()
{
    struct Operands
    {
        std::vector<float> a, b, c;
    };
    std::vector<Operands> ops;
    std::uint64_t task = 100;
    for (const GemmShape &s : kServedShapes) {
        ops.push_back({randomBuffer(s.m * s.k, task),
                       randomBuffer(s.k * s.n, task + 1),
                       std::vector<float>(s.m * s.n)});
        task += 2;
    }
    auto pass = [&](bool reference) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const GemmShape &s = kServedShapes[i];
            Operands &o = ops[i];
            std::fill(o.c.begin(), o.c.end(), 0.0f);
            if (reference)
                tensor::kernels::gemmF32Reference(
                    o.a.data(), o.b.data(), o.c.data(), s.m, s.k, s.n);
            else
                tensor::kernels::gemmF32(o.a.data(), o.b.data(),
                                         o.c.data(), s.m, s.k, s.n);
        }
    };
    // Best of 9 alternating rounds of 300 passes each: the minimum
    // is the least noisy estimate on a shared host.
    constexpr int kRounds = 9;
    constexpr int kPasses = 300;
    double best[2] = {1e30, 1e30};
    for (int round = 0; round < kRounds; ++round) {
        for (int ref = 0; ref < 2; ++ref) {
            common::Stopwatch sw;
            for (int p = 0; p < kPasses; ++p)
                pass(ref == 1);
            best[ref] = std::min(best[ref], sw.seconds() / kPasses);
        }
    }
    ServedSample out;
    out.shippingUs = best[0] * 1e6;
    out.referenceUs = best[1] * 1e6;
    out.speedup = best[1] / best[0];
    return out;
}

struct GemmSample
{
    std::size_t size = 0;
    double referenceGflops = 0.0;
    double shippingGflops = 0.0;
    double int8Gops = 0.0;
    double speedup = 0.0;
};

GemmSample
benchGemm(std::size_t size)
{
    std::size_t m = size, k = size, n = size;
    auto a = randomBuffer(m * k, size);
    auto b = randomBuffer(k * n, size + 1);
    std::vector<float> c(m * n);
    double flops = 2.0 * static_cast<double>(m) *
                   static_cast<double>(k) * static_cast<double>(n);

    GemmSample s;
    s.size = size;
    double reference = timeIt([&] {
        std::fill(c.begin(), c.end(), 0.0f);
        tensor::kernels::gemmF32Reference(a.data(), b.data(),
                                          c.data(), m, k, n);
    });
    double shipping = timeIt([&] {
        std::fill(c.begin(), c.end(), 0.0f);
        tensor::kernels::gemmF32(a.data(), b.data(), c.data(), m, k,
                                 n);
    });
    s.referenceGflops = flops / reference / 1e9;
    s.shippingGflops = flops / shipping / 1e9;
    s.speedup = reference / shipping;

    std::vector<std::int8_t> qa(m * k), qb(k * n);
    tensor::QuantParams qp = tensor::chooseQuantParams(-1.0f, 1.0f);
    tensor::quantizeBuffer(a.data(), m * k, qp, qa.data());
    tensor::quantizeBuffer(b.data(), k * n, qp, qb.data());
    std::vector<std::int32_t> qc(m * n);
    double int8 = timeIt([&] {
        std::fill(qc.begin(), qc.end(), 0);
        tensor::kernels::gemmS8(qa.data(), qb.data(), qc.data(), m,
                                k, n);
    });
    s.int8Gops = flops / int8 / 1e9;
    return s;
}

struct InferenceSample
{
    std::string version;
    double floatMs = 0.0;   //!< Measured wall-clock forward, batch 1.
    double q8Ms = 0.0;      //!< Measured wall-clock forward, batch 1.
    double floatModelMs = 0.0; //!< Deterministic service latency.
    double q8ModelMs = 0.0;    //!< Deterministic service latency.
};

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession session(
        argc, argv, {"json-out", "assert-speedup", "sizes"});
    bench::banner("BENCH-K: inference kernels",
                  "gemmF32 vs scalar Reference on cnn-l's served "
                  "shapes and square sizes; int8 GEMM; float vs q8 "
                  "zoo forward latency");

    std::string json_path = session.args().getString(
        "json-out", "BENCH_kernels.json");
    double assert_speedup =
        session.args().getDouble("assert-speedup", 0.0);

    ServedSample served = benchServed();
    std::printf("served cnn-l GEMMs (one batch-1 forward): reference "
                "%7.1f us  gemmF32 %7.1f us (%.2fx)\n",
                served.referenceUs, served.shippingUs,
                served.speedup);

    std::vector<std::size_t> sizes = {128, 256, 512};
    std::vector<GemmSample> gemm;
    for (std::size_t size : sizes) {
        gemm.push_back(benchGemm(size));
        const GemmSample &s = gemm.back();
        std::printf("gemm %4zu^3: reference %7.2f GF/s  gemmF32 "
                    "%7.2f GF/s (%.2fx)  int8 %7.2f GOP/s\n",
                    s.size, s.referenceGflops, s.shippingGflops,
                    s.speedup, s.int8Gops);
    }

    // Zoo architectures, float vs quantized, batch-1 forward.
    common::Pcg32 rng = exec::taskRng(4242, 99);
    tensor::Tensor calib({8, 1, kImageSize, kImageSize});
    calib.randomUniform(rng, 0.0f, 1.0f);
    tensor::Tensor probe({1, 1, kImageSize, kImageSize});
    probe.randomUniform(rng, 0.0f, 1.0f);

    ic::IcLatencyModel float_model;
    ic::IcLatencyModel q8_model;
    q8_model.secondsPerMac *= ic::kInt8MacRateFactor;

    std::vector<InferenceSample> inference;
    for (const auto &spec : ic::zooSpecs()) {
        nn::Network net = ic::buildZooNetwork(
            spec.name, kImageSize, dataset::kImageClasses, rng);
        nn::Network qnet = nn::quantizeNetwork(
            net, calib, spec.name + ic::kQuantizedSuffix);

        InferenceSample s;
        s.version = spec.name;
        s.floatMs = timeIt([&] { net.infer(probe); }) * 1e3;
        s.q8Ms = timeIt([&] { qnet.infer(probe); }) * 1e3;
        std::uint64_t macs = net.macsPerSample(
            tensor::Shape{1, kImageSize, kImageSize});
        s.floatModelMs = float_model.latency(macs) * 1e3;
        s.q8ModelMs = q8_model.latency(macs) * 1e3;
        inference.push_back(s);
        std::printf("%-8s forward: float %8.3f ms  q8 %8.3f ms | "
                    "modeled: float %7.2f ms  q8 %7.2f ms\n",
                    s.version.c_str(), s.floatMs, s.q8Ms,
                    s.floatModelMs, s.q8ModelMs);
    }

    {
        std::ofstream out(json_path);
        if (!out)
            common::fatal("cannot write ", json_path);
        common::JsonWriter json(out);
        json.beginObject();
        json.member("bench", "micro_kernels");
        json.member("int8_mac_rate_factor", ic::kInt8MacRateFactor);
        json.beginObject("served");
        json.member("net", "cnn-l");
        json.member("reference_us", served.referenceUs);
        json.member("shipping_us", served.shippingUs);
        json.member("speedup", served.speedup);
        json.endObject();
        json.beginArray("gemm");
        for (const auto &s : gemm) {
            json.beginObject();
            json.member("size", s.size);
            json.member("reference_gflops", s.referenceGflops);
            json.member("shipping_gflops", s.shippingGflops);
            json.member("speedup", s.speedup);
            json.member("int8_gops", s.int8Gops);
            json.endObject();
        }
        json.endArray();
        json.beginArray("inference");
        for (const auto &s : inference) {
            json.beginObject();
            json.member("version", s.version);
            json.member("float_ms", s.floatMs);
            json.member("q8_ms", s.q8Ms);
            json.member("float_model_ms", s.floatModelMs);
            json.member("q8_model_ms", s.q8ModelMs);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        out << "\n";
    }
    std::printf("wrote %s\n", json_path.c_str());

    if (assert_speedup > 0.0) {
        if (served.speedup < assert_speedup) {
            std::fprintf(stderr,
                         "FAIL: gemmF32 runs cnn-l's served GEMMs "
                         "%.2fx faster than the Reference, required "
                         "%.2fx\n",
                         served.speedup, assert_speedup);
            return 1;
        }
        for (const auto &s : inference) {
            if (!(s.q8ModelMs < s.floatModelMs)) {
                std::fprintf(stderr,
                             "FAIL: %s-q8 modeled latency %.3f ms "
                             "not below float %.3f ms\n",
                             s.version.c_str(), s.q8ModelMs,
                             s.floatModelMs);
                return 1;
            }
        }
        std::printf("sanity: served GEMMs %.2fx >= %.2fx and all "
                    "q8 versions modeled faster — OK\n",
                    served.speedup, assert_speedup);
    }
    return 0;
}
