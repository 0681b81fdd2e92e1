#include "tensor/kernels/kernels.hh"

#include <algorithm>
#include <cstring>

namespace toltiers::tensor::kernels {

namespace {

// The tile keeps its accumulators in registers only once its
// constant-trip loops are fully unrolled. GCC does that at -O3 but
// not at -O2 without the hint (a 2.8x slower kernel there); Clang
// unrolls them by itself.
#if defined(__GNUC__) && !defined(__clang__)
#define TT_UNROLL _Pragma("GCC unroll 4")
#else
#define TT_UNROLL
#endif

/** Four floats in one SSE2/NEON register (GCC/Clang vector type). */
typedef float F4 __attribute__((vector_size(16)));

inline F4
load4(const float *p)
{
    F4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store4(float *p, F4 v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * C[MR, 4·NV] += A[MR, k] · B[k, 4·NV] with the C block held in
 * registers across the whole k sweep. a, b and c point at the
 * block's first element; rows of A are k apart, rows of B and C n
 * apart. Per element this is the Reference's sequence: ascending k,
 * c = c + a·b as a separate multiply and add, nothing added where
 * the A entry is zero.
 */
template <std::size_t MR, std::size_t NV>
void
tile(const float *a, const float *b, float *c, std::size_t k,
     std::size_t n)
{
    F4 acc[MR][NV];
    TT_UNROLL
    for (std::size_t r = 0; r < MR; ++r) {
        TT_UNROLL
        for (std::size_t v = 0; v < NV; ++v)
            acc[r][v] = load4(c + r * n + 4 * v);
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *brow = b + kk * n;
        F4 bv[NV];
        TT_UNROLL
        for (std::size_t v = 0; v < NV; ++v)
            bv[v] = load4(brow + 4 * v);
        float av[MR];
        bool any_zero = false;
        TT_UNROLL
        for (std::size_t r = 0; r < MR; ++r) {
            av[r] = a[r * k + kk];
            any_zero |= av[r] == 0.0f;
        }
        // Weights are almost never exactly zero, so the common case
        // updates all MR rows without a branch per row.
        if (!any_zero) {
            TT_UNROLL
            for (std::size_t r = 0; r < MR; ++r) {
                F4 s = {av[r], av[r], av[r], av[r]};
                TT_UNROLL
                for (std::size_t v = 0; v < NV; ++v)
                    acc[r][v] += s * bv[v];
            }
        } else {
            TT_UNROLL
            for (std::size_t r = 0; r < MR; ++r) {
                if (av[r] == 0.0f)
                    continue;
                F4 s = {av[r], av[r], av[r], av[r]};
                TT_UNROLL
                for (std::size_t v = 0; v < NV; ++v)
                    acc[r][v] += s * bv[v];
            }
        }
    }
    TT_UNROLL
    for (std::size_t r = 0; r < MR; ++r) {
        TT_UNROLL
        for (std::size_t v = 0; v < NV; ++v)
            store4(c + r * n + 4 * v, acc[r][v]);
    }
}

/** The last `width` (< 4) columns of MR rows, one element at a time. */
template <std::size_t MR>
void
columnTail(const float *a, const float *b, float *c, std::size_t k,
           std::size_t n, std::size_t width)
{
    for (std::size_t r = 0; r < MR; ++r) {
        const float *arow = a + r * k;
        for (std::size_t j = 0; j < width; ++j) {
            float acc = c[r * n + j];
            for (std::size_t kk = 0; kk < k; ++kk) {
                float av = arow[kk];
                if (av != 0.0f)
                    acc += av * b[kk * n + j];
            }
            c[r * n + j] = acc;
        }
    }
}

/** All n columns of MR consecutive rows: 12-wide tiles, then tails. */
template <std::size_t MR>
void
rowBlock(const float *a, const float *b, float *c, std::size_t k,
         std::size_t n)
{
    std::size_t j = 0;
    for (; j + 12 <= n; j += 12)
        tile<MR, 3>(a, b + j, c + j, k, n);
    if (j + 8 <= n) {
        tile<MR, 2>(a, b + j, c + j, k, n);
        j += 8;
    }
    if (j + 4 <= n) {
        tile<MR, 1>(a, b + j, c + j, k, n);
        j += 4;
    }
    if (j < n)
        columnTail<MR>(a, b + j, c + j, k, n, n - j);
}

} // namespace

void
gemmF32Reference(const float *a, const float *b, float *c,
                 std::size_t m, std::size_t k, std::size_t n)
{
    // ikj loop order: streams B and C rows for cache friendliness.
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            float av = a[i * k + kk];
            if (av == 0.0f)
                continue;
            const float *brow = b + kk * n;
            float *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemmF32(const float *a, const float *b, float *c, std::size_t m,
        std::size_t k, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4)
        rowBlock<4>(a + i * k, b, c + i * n, k, n);
    // Leftover rows, and the dense layers' batch-1 row, one at a time.
    for (; i < m; ++i)
        rowBlock<1>(a + i * k, b, c + i * n, k, n);
}

void
gemmS8(const std::int8_t *a, const std::int8_t *b, std::int32_t *c,
       std::size_t m, std::size_t k, std::size_t n)
{
    // Integer accumulation is associative, so only the int32 width
    // matters for exactness: |product| <= 127*127, so overflow needs
    // K > 2^31 / 127^2 ≈ 133k — far beyond any layer here.
    constexpr std::size_t MR = 4;
    constexpr std::size_t NB = 64;
    for (std::size_t j0 = 0; j0 < n; j0 += NB) {
        std::size_t jend = std::min(j0 + NB, n);
        for (std::size_t i0 = 0; i0 < m; i0 += MR) {
            std::size_t iend = std::min(i0 + MR, m);
            for (std::size_t kk = 0; kk < k; ++kk) {
                const std::int8_t *brow = b + kk * n;
                for (std::size_t i = i0; i < iend; ++i) {
                    std::int32_t av = a[i * k + kk];
                    if (av == 0)
                        continue;
                    std::int32_t *crow = c + i * n;
#pragma omp simd
                    for (std::size_t j = j0; j < jend; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

} // namespace toltiers::tensor::kernels
