/**
 * @file
 * Kernel-equivalence, quantization, and arena test harness
 * (`ctest -L kernels`).
 *
 * The suites prove the three contracts the inference hot path rests
 * on:
 *
 *  - Equivalence: the Blocked float GEMM is **bit-identical** to the
 *    scalar Reference oracle on random streams and edge shapes, the
 *    int8 GEMM matches an independent integer model exactly, and an
 *    all-ones K=129 dot product pins the int32-accumulator contract
 *    (an int8 accumulator would wrap at K=128).
 *  - Quantization: round-trip error is bounded by half a scale step,
 *    zero always quantizes exactly, saturation stops at ±127, the
 *    dequantization zero-point correction is exact on grid-aligned
 *    values, and the end-to-end top-1 degradation of every "-q8"
 *    zoo sibling stays within the committed golden bound
 *    (regenerate with TT_UPDATE_GOLDEN=1 ./kernels_test).
 *  - Arena: allocations are cache-line aligned, reset() recycles
 *    blocks, and — via global operator new/delete counters — a
 *    warmed-up forward pass inside an ArenaScope performs **zero**
 *    heap allocations.
 *  - Serve path: with metrics, the SLO tracker, the guarantee
 *    monitor and the result cache attached, a warm cache hit through
 *    TierService::handle — and through TierFrontDoor::submitAsync,
 *    which answers it on the submitting thread — performs **zero**
 *    heap allocations (every telemetry handle is cached; no
 *    registry lookup remains).
 *
 * The routing-rule suite closes the loop of ISSUE 8: a trace over
 * the widened float+int8 ladder must yield a generated rule table
 * that actually routes to an int8 version.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/policy.hh"
#include "core/front_door.hh"
#include "core/rule_generator.hh"
#include "core/tier_service.hh"
#include "dataset/synth_images.hh"
#include "exec/pool.hh"
#include "exec/rng.hh"
#include "ic/quantize.hh"
#include "ic/trainer.hh"
#include "ic/zoo.hh"
#include "nn/quantized.hh"
#include "obs/obs.hh"
#include "serving/cache.hh"
#include "serving/request.hh"
#include "tensor/arena.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/kernels/quantize.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace tt = toltiers::tensor;
namespace tk = toltiers::tensor::kernels;
namespace tn = toltiers::nn;
namespace ti = toltiers::ic;
namespace td = toltiers::dataset;
namespace tc = toltiers::common;
namespace te = toltiers::exec;
namespace co = toltiers::core;
namespace sv = toltiers::serving;

// ------------------------------------------------ heap accounting
//
// Global operator new/delete replacements counting every heap
// allocation in the process. The zero-alloc arena tests measure the
// counter delta around a warmed-up forward pass; any hidden heap
// traffic (tensor storage, vector growth) fails the assertion.

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

void *
countedAlloc(std::size_t n)
{
    ++g_heap_allocs;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

// ------------------------------------------------------- helpers

/** Restore the process-wide kernel backend on scope exit. */
struct BackendGuard
{
    tt::KernelBackend saved;
    BackendGuard() : saved(tt::kernelPolicy().backend) {}
    ~BackendGuard() { tt::setKernelBackend(saved); }
};

/**
 * Deterministic float stream with exact zeros sprinkled in (every
 * seventh element), so the kernels' skip-zero fast path is exercised
 * by every equivalence run.
 */
std::vector<float>
randomStream(std::size_t n, std::uint64_t task)
{
    tc::Pcg32 rng = te::taskRng(20260808, task);
    std::vector<float> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = i % 7 == 3
                     ? 0.0f
                     : static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    return out;
}

tt::Tensor
randomTensor(tt::Shape shape, tc::Pcg32 &rng)
{
    tt::Tensor t(shape);
    t.randomUniform(rng, -1.0f, 1.0f);
    return t;
}

// ----------------------------------------------- float GEMM oracle

/** Shapes covering tile boundaries, remainders, and empty axes. */
struct GemmShape
{
    std::size_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {1, 1, 1},    // minimal
    {1, 5, 1},    // odd K, single output
    {3, 7, 5},    // everything below one tile
    {4, 64, 64},  // exact MR x NB tile
    {5, 3, 65},   // one column past the NB tile
    {8, 129, 66}, // K past the int8 wrap point, j remainder
    {17, 31, 129},
    {2, 0, 3},    // K = 0: C must be untouched
    {0, 4, 5},    // M = 0
    {6, 4, 0},    // N = 0
};

TEST(GemmEquivalence, BlockedIsBitExactOnRandomStreams)
{
    std::uint64_t task = 0;
    for (const auto &s : kGemmShapes) {
        auto a = randomStream(s.m * s.k, ++task);
        auto b = randomStream(s.k * s.n, ++task);
        // Both backends accumulate into the same nonzero prefill:
        // the C += A.B contract must match bitwise too.
        auto c_ref = randomStream(s.m * s.n, ++task);
        auto c_blk = c_ref;
        tk::gemmF32Reference(a.data(), b.data(), c_ref.data(), s.m,
                             s.k, s.n);
        tk::gemmF32Blocked(a.data(), b.data(), c_blk.data(), s.m,
                           s.k, s.n);
        if (!c_ref.empty()) {
            ASSERT_EQ(std::memcmp(c_ref.data(), c_blk.data(),
                                  c_ref.size() * sizeof(float)),
                      0)
                << "shape " << s.m << "x" << s.k << "x" << s.n;
        }
    }
}

TEST(GemmEquivalence, ZeroKLeavesAccumulatorUntouched)
{
    auto c = randomStream(6, 77);
    auto want = c;
    const float dummy[1] = {0.0f};
    tk::gemmF32Blocked(dummy, dummy, c.data(), 2, 0, 3);
    EXPECT_EQ(std::memcmp(c.data(), want.data(),
                          c.size() * sizeof(float)),
              0);
}

TEST(GemmEquivalence, DispatcherHonorsBackendSelection)
{
    BackendGuard guard;
    auto a = randomStream(5 * 9, 101);
    auto b = randomStream(9 * 7, 102);
    std::vector<float> c_ref(5 * 7, 0.0f), c_blk(5 * 7, 0.0f);

    tt::setKernelBackend(tt::KernelBackend::Reference);
    EXPECT_EQ(tt::kernelPolicy().backend,
              tt::KernelBackend::Reference);
    tk::gemmF32(a.data(), b.data(), c_ref.data(), 5, 9, 7);

    tt::setKernelBackend(tt::KernelBackend::Blocked);
    tk::gemmF32(a.data(), b.data(), c_blk.data(), 5, 9, 7);
    EXPECT_EQ(std::memcmp(c_ref.data(), c_blk.data(),
                          c_ref.size() * sizeof(float)),
              0);
}

TEST(GemmEquivalence, BackendNamesRoundTrip)
{
    auto ref = tt::parseKernelBackend("reference");
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(*ref, tt::KernelBackend::Reference);
    auto blk = tt::parseKernelBackend("blocked");
    ASSERT_TRUE(blk.has_value());
    EXPECT_EQ(*blk, tt::KernelBackend::Blocked);
    EXPECT_FALSE(tt::parseKernelBackend("avx-512").has_value());
    EXPECT_STREQ(tt::kernelBackendName(tt::KernelBackend::Reference),
                 "reference");
    EXPECT_STREQ(tt::kernelBackendName(tt::KernelBackend::Blocked),
                 "blocked");
}

TEST(GemmEquivalence, OpsMatmulIsBackendInvariant)
{
    BackendGuard guard;
    tc::Pcg32 rng(5);
    tt::Tensor a = randomTensor({7, 9}, rng);
    tt::Tensor b = randomTensor({9, 11}, rng);

    tt::setKernelBackend(tt::KernelBackend::Reference);
    tt::Tensor ref = tt::matmul(a, b);
    tt::setKernelBackend(tt::KernelBackend::Blocked);
    tt::Tensor blk = tt::matmul(a, b);
    ASSERT_EQ(ref.size(), blk.size());
    EXPECT_EQ(std::memcmp(ref.data(), blk.data(),
                          ref.size() * sizeof(float)),
              0);
}

TEST(GemmEquivalence, OpsConvIsBackendInvariant)
{
    BackendGuard guard;
    tc::Pcg32 rng(6);
    tt::Tensor in = randomTensor({2, 3, 8, 8}, rng);
    tt::Tensor w = randomTensor({4, 3, 3, 3}, rng);
    tt::Tensor bias = randomTensor({4}, rng);
    tt::ConvGeometry g;

    tt::setKernelBackend(tt::KernelBackend::Reference);
    tt::Tensor ref = tt::conv2dForward(in, w, bias, g);
    tt::setKernelBackend(tt::KernelBackend::Blocked);
    tt::Tensor blk = tt::conv2dForward(in, w, bias, g);
    ASSERT_EQ(ref.size(), blk.size());
    EXPECT_EQ(std::memcmp(ref.data(), blk.data(),
                          ref.size() * sizeof(float)),
              0);
}

// ------------------------------------------------------ int8 GEMM

TEST(GemmS8, MatchesIntegerModelExactly)
{
    tc::Pcg32 rng(7);
    const std::size_t m = 5, k = 37, n = 9;
    std::vector<std::int8_t> a(m * k), b(k * n);
    tt::QuantParams p{1.0f / 127.0f, 0};
    for (auto &q : a)
        q = tt::quantizeValue(
            static_cast<float>(rng.uniform(-1.0, 1.0)), p);
    for (auto &q : b)
        q = tt::quantizeValue(
            static_cast<float>(rng.uniform(-1.0, 1.0)), p);

    std::vector<std::int32_t> got(m * n, 0), want(m * n, 0);
    tk::gemmS8(a.data(), b.data(), got.data(), m, k, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t kk = 0; kk < k; ++kk)
                want[i * n + j] +=
                    static_cast<std::int32_t>(a[i * k + kk]) *
                    static_cast<std::int32_t>(b[kk * n + j]);
    EXPECT_EQ(got, want);
}

TEST(GemmS8, Int32AccumulatorSurvivesK129)
{
    // 129 products of 1*1: an int8 accumulator wraps at 128, an
    // int16 one survives here but wraps under saturated operands
    // below. Only explicit int32 accumulation passes both.
    const std::size_t k = 129;
    std::vector<std::int8_t> ones(k, 1);
    std::int32_t c = 0;
    tk::gemmS8(ones.data(), ones.data(), &c, 1, k, 1);
    EXPECT_EQ(c, 129);

    std::vector<std::int8_t> sat(k, 127);
    c = 0;
    tk::gemmS8(sat.data(), sat.data(), &c, 1, k, 1);
    EXPECT_EQ(c, 129 * 127 * 127); // 2,080,641 — needs 32 bits.
}

// ---------------------------------------------------- quantization

TEST(Quantize, RoundTripStaysWithinHalfStep)
{
    tt::QuantParams p = tt::chooseQuantParams(-3.0f, 5.0f);
    ASSERT_GT(p.scale, 0.0f);
    for (int i = 0; i <= 100; ++i) {
        float x = -3.0f + 8.0f * static_cast<float>(i) / 100.0f;
        float back = tt::dequantizeValue(tt::quantizeValue(x, p), p);
        EXPECT_NEAR(back, x, p.scale / 2.0f + 1e-6f) << "x=" << x;
    }
}

TEST(Quantize, ZeroIsAlwaysExact)
{
    // The range is widened to include zero so padding quantizes
    // exactly — even when the observed activations never reach it.
    for (auto [lo, hi] : {std::pair{0.2f, 1.0f},
                          std::pair{-1.0f, -0.5f},
                          std::pair{-0.3f, 0.7f}}) {
        tt::QuantParams p = tt::chooseQuantParams(lo, hi);
        EXPECT_EQ(tt::dequantizeValue(tt::quantizeValue(0.0f, p), p),
                  0.0f)
            << "range [" << lo << ", " << hi << "]";
    }
}

TEST(Quantize, SaturatesAtSymmetric127)
{
    tt::QuantParams p = tt::chooseQuantParams(-1.0f, 1.0f);
    EXPECT_EQ(tt::quantizeValue(50.0f, p), tt::kQuantMax);
    EXPECT_EQ(tt::quantizeValue(-50.0f, p), -tt::kQuantMax);
}

TEST(Quantize, DegenerateRangeIsIdentityScale)
{
    tt::QuantParams p = tt::chooseQuantParams(0.0f, 0.0f);
    EXPECT_EQ(p.scale, 1.0f);
    EXPECT_EQ(p.zeroPoint, 0);
}

TEST(Quantize, PerChannelScalesAreIndependent)
{
    // Channel 0 spans +-4, channel 1 is all zero (scale must fall
    // back to 1 so dequantization never divides by zero).
    const float w[] = {1.0f, -2.0f, 3.0f, -4.0f, //
                       0.0f, 0.0f,  0.0f, 0.0f};
    std::vector<std::int8_t> q(8);
    auto scales = tt::quantizeWeightsPerChannel(w, 2, 4, q.data());
    ASSERT_EQ(scales.size(), 2u);
    EXPECT_NEAR(scales[0], 4.0f / 127.0f, 1e-7f);
    EXPECT_EQ(scales[1], 1.0f);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(static_cast<float>(q[i]) * scales[0], w[i],
                    scales[0] / 2.0f + 1e-6f);
        EXPECT_EQ(q[4 + i], 0);
    }
    // The widest entry uses the full range.
    EXPECT_EQ(q[3], -127);
}

TEST(Quantize, BufferRangeFindsExtremes)
{
    const float x[] = {0.5f, -2.5f, 1.75f, 0.0f};
    float lo = 0.0f, hi = 0.0f;
    tt::bufferRange(x, 4, lo, hi);
    EXPECT_EQ(lo, -2.5f);
    EXPECT_EQ(hi, 1.75f);
    tt::bufferRange(x, 0, lo, hi);
    EXPECT_EQ(lo, 0.0f);
    EXPECT_EQ(hi, 0.0f);
}

// -------------------------------------------- quantized layers
//
// Grid-aligned exactness: with weights and inputs chosen as exact
// multiples of their scales, quantization is lossless and the int8
// forward must reproduce the float result to rounding — including
// the zero-point correction term (za * colSum), which only cancels
// correctly if the dequantization algebra is right.

TEST(QuantizedLayers, DenseIsExactOnGridAlignedValues)
{
    const float s = 1.0f / 127.0f;
    tt::Tensor w({2, 2});
    w.at2(0, 0) = 127 * s; // channel 0 (output column 0)
    w.at2(1, 0) = -64 * s;
    w.at2(0, 1) = 63 * s; // channel 1
    w.at2(1, 1) = -127 * s;
    tt::Tensor b({2});
    b.data()[0] = 0.25f;
    b.data()[1] = -0.5f;

    // Nonzero activation zero point: x = (k - 10) * s quantizes to
    // exactly k, so the correction term is exercised, not bypassed.
    tt::QuantParams in_quant{s, 10};
    tt::Tensor in({2, 2});
    in.at2(0, 0) = (50 - 10) * s;
    in.at2(0, 1) = (-30 - 10) * s;
    in.at2(1, 0) = (127 - 10) * s;
    in.at2(1, 1) = (-100 - 10) * s;

    tn::QDense q(w, b, in_quant);
    tt::Tensor out = q.forward(in, false);
    ASSERT_EQ(out.dim(0), 2u);
    ASSERT_EQ(out.dim(1), 2u);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t j = 0; j < 2; ++j) {
            double want = static_cast<double>(in.at2(r, 0)) *
                              w.at2(0, j) +
                          static_cast<double>(in.at2(r, 1)) *
                              w.at2(1, j) +
                          b.data()[j];
            EXPECT_NEAR(out.at2(r, j), want, 1e-6) << r << "," << j;
        }
    }
}

TEST(QuantizedLayers, ConvMatchesFloatOnGridAlignedValues)
{
    const float s = 1.0f / 127.0f;
    tt::Tensor in({1, 1, 4, 4});
    for (std::size_t i = 0; i < 16; ++i)
        in.data()[i] =
            (static_cast<float>(5 + 3 * i) - 5.0f) * s;
    const int wq[] = {3, -14, 25, -36, 47, -58, 69, -80, 127};
    tt::Tensor w({1, 1, 3, 3});
    for (std::size_t i = 0; i < 9; ++i)
        w.data()[i] = static_cast<float>(wq[i]) * s;
    tt::Tensor bias({1});
    bias.data()[0] = 0.1f;
    tt::ConvGeometry g; // 3x3, stride 1, pad 1

    // zp = 5: the im2col padding quantizes to the zero point and the
    // row-sum correction must remove it exactly.
    tn::QConv2d q(w, bias, g, tt::QuantParams{s, 5});
    tt::Tensor got = q.forward(in, false);
    tt::Tensor want = tt::conv2dForward(in, w, bias, g);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got.data()[i], want.data()[i], 1e-4f) << i;
}

TEST(QuantizedLayers, QuantizedNetworkTracksFloatNetwork)
{
    tc::Pcg32 rng(9);
    tn::Network net =
        ti::buildZooNetwork("mlp-s", 12, td::kImageClasses, rng);
    tt::Tensor calib({4, 1, 12, 12});
    calib.randomUniform(rng, 0.0f, 1.0f);
    tn::Network qnet = tn::quantizeNetwork(net, calib, "mlp-s-q8");
    EXPECT_EQ(qnet.name(), "mlp-s-q8");
    EXPECT_EQ(qnet.depth(), net.depth());

    tt::Tensor probe({2, 1, 12, 12});
    probe.randomUniform(rng, 0.0f, 1.0f);
    tt::Tensor ref = net.forward(probe, false);
    tt::Tensor got = qnet.forward(probe, false);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got.data()[i], ref.data()[i], 0.25f) << i;
    // MACs describe the architecture, not the datatype.
    EXPECT_EQ(qnet.lastForwardMacs(), net.lastForwardMacs());
}

TEST(QuantizedLayers, BackwardPanics)
{
    tt::Tensor w({1, 1});
    w.data()[0] = 0.5f;
    tt::Tensor b({1});
    tn::QDense q(w, b, tt::QuantParams{1.0f / 127.0f, 0});
    tt::Tensor d({1, 1});
    EXPECT_DEATH(q.backward(d), "inference-only");
}

// ----------------------------------------------------------- arena

TEST(Arena, AllocationsAreCacheLineAligned)
{
    tt::Arena arena(1024);
    for (std::size_t bytes : {1u, 17u, 64u, 100u, 1000u}) {
        void *p = arena.allocate(bytes);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                      tt::Arena::kAlignment,
                  0u)
            << bytes;
    }
    EXPECT_NE(arena.allocate(0), nullptr);
}

TEST(Arena, ResetRecyclesBlocksWithoutNewHeapTraffic)
{
    tt::Arena arena(4096);
    void *first = arena.allocate(100);
    arena.allocate(200);
    EXPECT_GE(arena.bytesInUse(), 300u);

    arena.reset();
    EXPECT_EQ(arena.bytesInUse(), 0u);
    std::uint64_t blocks = arena.stats().heapBlocks;
    // Same sequence after reset: same memory, no heap refill.
    EXPECT_EQ(arena.allocate(100), first);
    arena.allocate(200);
    EXPECT_EQ(arena.stats().heapBlocks, blocks);
    EXPECT_EQ(arena.stats().resets, 1u);
}

TEST(Arena, OversizedRequestGetsDedicatedBlock)
{
    tt::Arena arena(256);
    void *p = arena.allocate(10000);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(arena.capacityBytes(), 10000u);
    // The oversized block is recycled too.
    arena.reset();
    std::uint64_t blocks = arena.stats().heapBlocks;
    arena.allocate(10000);
    EXPECT_EQ(arena.stats().heapBlocks, blocks);
}

TEST(Arena, ScopeRedirectsTensorStorage)
{
    EXPECT_EQ(tt::ArenaScope::current(), nullptr);
    tt::Arena arena;
    tt::MemoryStats before = tt::memoryStats();
    {
        tt::ArenaScope scope(arena);
        EXPECT_EQ(tt::ArenaScope::current(), &arena);
        tt::Tensor t({4, 4});
        // Arena-backed tensors are still zero-initialized.
        for (std::size_t i = 0; i < t.size(); ++i)
            ASSERT_EQ(t.data()[i], 0.0f);
        {
            tt::Arena inner;
            tt::ArenaScope nested(inner);
            EXPECT_EQ(tt::ArenaScope::current(), &inner);
        }
        EXPECT_EQ(tt::ArenaScope::current(), &arena);
    }
    EXPECT_EQ(tt::ArenaScope::current(), nullptr);
    tt::MemoryStats after = tt::memoryStats();
    EXPECT_EQ(after.heapAllocations, before.heapAllocations);
    EXPECT_GT(after.arenaAllocations, before.arenaAllocations);

    tt::Tensor heap_tensor({2, 2});
    EXPECT_GT(tt::memoryStats().heapAllocations,
              before.heapAllocations);
}

TEST(Arena, WarmForwardPassIsHeapFree)
{
    tc::Pcg32 rng(11);
    tn::Network net =
        ti::buildZooNetwork("cnn-s", 12, td::kImageClasses, rng);
    tt::Tensor calib({4, 1, 12, 12});
    calib.randomUniform(rng, 0.0f, 1.0f);
    tn::Network qnet = tn::quantizeNetwork(net, calib, "cnn-s-q8");
    tt::Tensor probe({1, 1, 12, 12});
    probe.randomUniform(rng, 0.0f, 1.0f);

    tt::Arena &arena = tt::inferenceArena();
    for (int warm = 0; warm < 2; ++warm) {
        arena.reset();
        tt::ArenaScope scope(arena);
        net.forward(probe, false);
        qnet.forward(probe, false);
    }

    tt::MemoryStats mem_before = tt::memoryStats();
    std::uint64_t heap_before = g_heap_allocs.load();
    {
        arena.reset();
        tt::ArenaScope scope(arena);
        net.forward(probe, false);
        qnet.forward(probe, false);
    }
    std::uint64_t heap_delta = g_heap_allocs.load() - heap_before;
    tt::MemoryStats mem_after = tt::memoryStats();
    EXPECT_EQ(heap_delta, 0u)
        << "steady-state forward touched the heap";
    EXPECT_EQ(mem_after.heapAllocations, mem_before.heapAllocations);
    EXPECT_GT(mem_after.arenaAllocations,
              mem_before.arenaAllocations);
}

// ----------------------------------------- zero-allocation serving

namespace {

/** A version with a fixed short output (inside std::string's inline
 * buffer), so the heap counter sees only the serve path itself. */
class ShortOutputVersion : public sv::ServiceVersion
{
  public:
    ShortOutputVersion(std::string name, double latency)
        : name_(std::move(name)), instance_("fixed"), latency_(latency)
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &instanceName() const override
    {
        return instance_;
    }
    std::size_t workloadSize() const override { return 16; }

    sv::VersionResult
    process(std::size_t) const override
    {
        sv::VersionResult r;
        r.output = "label-7";
        r.confidence = 0.9;
        r.latencySeconds = latency_;
        r.costDollars = latency_ * 1e-3;
        return r;
    }

  private:
    std::string name_;
    std::string instance_;
    double latency_;
};

} // namespace

TEST(ServePath, WarmCacheHitIsHeapFree)
{
    ShortOutputVersion fast("fast", 0.01);
    ShortOutputVersion accurate("accurate", 0.05);
    co::TierService svc({&fast, &accurate});
    co::RoutingRule rule;
    rule.tolerance = 0.05;
    rule.cfg.kind = co::PolicyKind::Sequential;
    rule.cfg.primary = 0;
    rule.cfg.secondary = 1;
    rule.cfg.confidenceThreshold = 0.5;
    svc.setRules(sv::Objective::ResponseTime, {rule});

    toltiers::obs::Registry registry;
    toltiers::obs::GuaranteeMonitor monitor;
    toltiers::obs::SloTracker slo;
    slo.attachMetrics(&registry);
    sv::CacheConfig cache_cfg;
    cache_cfg.metrics = &registry;
    sv::ResultCache cache(cache_cfg);
    svc.setCache(&cache);
    svc.attachObservability({&registry, nullptr, &monitor, &slo});

    sv::ServiceRequest req;
    req.payload = 3;
    req.tenant = "tenant-a";
    req.tier.tolerance = 0.05;
    // Warm-up: the miss fills the cache; the first hits resolve the
    // lazily cached handles and size the SLO windows.
    for (int i = 0; i < 3; ++i)
        (void)svc.handle(req);

    // More hits than the SLO fast window holds, so its ring wraps.
    constexpr int kHits = 200;
    int served_from_cache = 0;
    std::uint64_t heap_before = g_heap_allocs.load();
    for (int i = 0; i < kHits; ++i)
        served_from_cache += svc.handle(req).servedFromCache ? 1 : 0;
    std::uint64_t heap_delta = g_heap_allocs.load() - heap_before;
    EXPECT_EQ(served_from_cache, kHits);
    EXPECT_EQ(heap_delta, 0u) << "a warm cache hit touched the heap";

    // The same hit through the door: admitted, looked up, accounted
    // and completed on this thread. The completion captures one
    // reference, so std::function stores it without the heap.
    te::ThreadPool pool(2);
    co::FrontDoorConfig door_cfg;
    door_cfg.pool = &pool;
    door_cfg.metrics = &registry;
    co::TierFrontDoor door(svc, door_cfg);
    int door_hits = 0;
    co::TierFrontDoor::Completion done =
        [&door_hits](const co::TierResponse &r) {
            door_hits += r.servedFromCache ? 1 : 0;
        };
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(door.submitAsync(req, done));
    door_hits = 0;
    heap_before = g_heap_allocs.load();
    for (int i = 0; i < kHits; ++i)
        ASSERT_TRUE(door.submitAsync(req, done));
    heap_delta = g_heap_allocs.load() - heap_before;
    EXPECT_EQ(door_hits, kHits);
    EXPECT_EQ(heap_delta, 0u)
        << "a warm cache hit through the door touched the heap";
    EXPECT_EQ(door.stats().completed, 3u + kHits);
}

// ----------------------------------- end-to-end quantized accuracy
//
// A tiny zoo (quick to train, fully deterministic) plus its int8
// siblings, shared by the accuracy-golden and routing-rule suites.

struct TinyStack
{
    td::ImageSet train;
    td::ImageSet test;
    std::vector<ti::Classifier> zoo; //!< 5 float + 5 "-q8".
    std::vector<double> error;       //!< Top-1 error per version.
};

TinyStack &
tinyStack()
{
    static TinyStack stack = [] {
        TinyStack s;
        td::ImageSetConfig dc;
        dc.count = 160;
        dc.seed = 7;
        s.train = td::buildImageSet(dc);
        dc.count = 160;
        dc.seed = 8;
        s.test = td::buildImageSet(dc);

        ti::ZooTrainConfig zc;
        zc.epochOverride = 1; // keep the suite fast
        s.zoo = ti::trainZoo(s.train, zc);
        auto quantized = ti::quantizeZoo(s.zoo, s.train);
        for (auto &q : quantized)
            s.zoo.push_back(std::move(q));

        for (auto &clf : s.zoo) {
            auto results = clf.classifyAll(s.test);
            std::size_t wrong = 0;
            for (std::size_t i = 0; i < results.size(); ++i)
                wrong += results[i].label != s.test.labels[i];
            s.error.push_back(static_cast<double>(wrong) /
                              static_cast<double>(results.size()));
        }
        return s;
    }();
    return stack;
}

/** name -> recorded worst-case q8 top-1 degradation (points). */
std::vector<std::pair<std::string, double>>
readDegradationGolden(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::pair<std::string, double>> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::stringstream ss(line);
        std::string name, bound;
        if (std::getline(ss, name, ',') && std::getline(ss, bound))
            rows.emplace_back(name, std::strtod(bound.c_str(),
                                                nullptr));
    }
    return rows;
}

TEST(QuantizedAccuracy, DegradationWithinGoldenBound)
{
    const TinyStack &s = tinyStack();
    ASSERT_EQ(s.zoo.size(), 10u);
    const std::string golden_path =
        std::string(TT_GOLDEN_DIR) + "/q8_degradation.csv";

    if (std::getenv("TT_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << "# max top-1 degradation (points) of each -q8 sibling"
            << " vs its float parent;\n"
            << "# measured value + 0.02 headroom. Regenerate with"
            << " TT_UPDATE_GOLDEN=1 ./kernels_test\n";
        for (std::size_t v = 0; v < 5; ++v)
            out << s.zoo[v + 5].name() << ","
                << (s.error[v + 5] - s.error[v]) + 0.02 << "\n";
        GTEST_SKIP() << "regenerated " << golden_path;
    }

    auto golden = readDegradationGolden(golden_path);
    ASSERT_EQ(golden.size(), 5u)
        << "missing golden " << golden_path
        << " — regenerate with TT_UPDATE_GOLDEN=1";
    for (std::size_t v = 0; v < 5; ++v) {
        EXPECT_EQ(s.zoo[v + 5].name(), golden[v].first);
        double degradation = s.error[v + 5] - s.error[v];
        EXPECT_LE(degradation, golden[v].second)
            << s.zoo[v + 5].name();
        // Hard cap: int8 PTQ must never cost double-digit accuracy.
        EXPECT_LE(golden[v].second, 0.10) << s.zoo[v + 5].name();
    }
}

TEST(QuantizedAccuracy, SiblingsShareArchitectureNotLatency)
{
    const TinyStack &s = tinyStack();
    for (std::size_t v = 0; v < 5; ++v) {
        const ti::Classifier &f = s.zoo[v];
        const ti::Classifier &q = s.zoo[v + 5];
        EXPECT_EQ(q.name(), f.name() + ti::kQuantizedSuffix);
        EXPECT_EQ(q.macsPerImage(), f.macsPerImage());
        // Same overhead, faster MAC rate -> strictly faster.
        EXPECT_LT(q.latencyModel().latency(q.macsPerImage()),
                  f.latencyModel().latency(f.macsPerImage()));
        EXPECT_DOUBLE_EQ(q.latencyModel().secondsPerMac,
                         f.latencyModel().secondsPerMac *
                             ti::kInt8MacRateFactor);
    }
}

// ------------------------------------------- routing-rule closure

/** The tiny stack's measurement trace (mirrors the bench collector). */
co::MeasurementSet
tinyTrace(const TinyStack &s)
{
    std::vector<std::string> names;
    for (const auto &clf : s.zoo)
        names.push_back(clf.name());
    co::MeasurementSet ms(std::move(names));

    std::vector<std::vector<ti::IcResult>> results;
    for (const auto &clf : s.zoo)
        results.push_back(clf.classifyAll(s.test));

    std::vector<co::Measurement> row(s.zoo.size());
    for (std::size_t r = 0; r < s.test.count(); ++r) {
        for (std::size_t v = 0; v < s.zoo.size(); ++v) {
            const ti::IcResult &res = results[v][r];
            co::Measurement m;
            m.error = res.label == s.test.labels[r] ? 0.0 : 1.0;
            m.latency = s.zoo[v].latencyModel().latency(res.macs);
            m.cost = m.latency * 2e-4;
            m.confidence = res.confidence;
            row[v] = m;
        }
        ms.addRequest(row);
    }
    return ms;
}

TEST(RoutingRules, GeneratedTableRoutesToAnInt8Version)
{
    const TinyStack &s = tinyStack();
    co::MeasurementSet ms = tinyTrace(s);
    ASSERT_EQ(ms.versionCount(), 10u);

    co::RuleGenConfig cfg;
    cfg.referenceVersion = 4; // cnn-l, the most accurate float tier
    cfg.maxTrials = 80;
    cfg.mode = co::DegradationMode::AbsolutePoints;
    co::RoutingRuleGenerator gen(
        ms, co::enumerateCandidates(ms.versionCount(), {0.5, 0.9}),
        cfg);

    auto tolerances = co::toleranceGrid(0.8, 0.2);
    auto rules =
        gen.generate(tolerances, sv::Objective::ResponseTime);
    ASSERT_EQ(rules.size(), tolerances.size());

    // The int8 siblings dominate their float parents on latency at
    // (near-)equal error, so a latency-objective table over the
    // widened ladder must route at least one tier to a "-q8"
    // version.
    bool saw_q8 = false;
    for (const auto &rule : rules) {
        std::string desc = rule.cfg.describe(ms);
        if (desc.find(ti::kQuantizedSuffix) != std::string::npos)
            saw_q8 = true;
        EXPECT_LE(rule.worstErrorDegradation, rule.tolerance);
    }
    EXPECT_TRUE(saw_q8)
        << "no generated rule routes to an int8 version";
}

} // namespace
