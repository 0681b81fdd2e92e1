/**
 * @file
 * Inference GEMM kernels.
 *
 *  - gemmF32: the one float kernel every layer calls. It is
 *    register-tiled: a 4-row × 12-column block of C stays in twelve
 *    four-wide vector registers for the whole k sweep, so each B row
 *    segment is loaded once per four rows of A and C is read and
 *    written once per tile instead of once per k. 8- and 4-column
 *    tiles, a scalar column loop and a one-row path cover the tails.
 *  - gemmF32Reference: the original scalar ikj loop, kept verbatim
 *    as the correctness oracle of the tests and the baseline of
 *    bench/micro_kernels.
 *
 * gemmF32 is **bit-exact** against the Reference: every output
 * element starts from its C value and adds its products in ascending
 * k, each one a separate multiply then add, skipping the k where the
 * A entry is zero. Tiling changes which registers hold the sums, not
 * a single rounding step (tests/kernels_test.cc proves this with
 * memcmp on random streams, every tail and every zoo GEMM shape).
 * The kernel is plain C++ over GCC/Clang vector types for the
 * baseline ISA: no -march, no target attributes, no runtime
 * dispatch. Baseline x86-64 has no fused multiply-add, so the
 * compiler cannot contract a multiply and an add into one rounding;
 * a build that enables FMA would change the bits of both kernels.
 *
 * All GEMMs use the accumulate contract C += A·B; callers pass a
 * zero-initialized C (Tensor construction already guarantees this).
 * C must not overlap A or B. The int8 kernel accumulates in explicit
 * int32 — never in the element type — so K ≥ 129 dot products of
 * saturated values cannot wrap (regression-tested).
 */

#ifndef TOLTIERS_TENSOR_KERNELS_KERNELS_HH
#define TOLTIERS_TENSOR_KERNELS_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace toltiers::tensor::kernels {

/**
 * C[m,n] += A[m,k] · B[k,n], scalar reference order: for each output
 * element, products are added in ascending k, skipping zero A
 * entries. The oracle gemmF32 must match bit for bit.
 */
void gemmF32Reference(const float *a, const float *b, float *c,
                      std::size_t m, std::size_t k, std::size_t n);

/**
 * C[m,n] += A[m,k] · B[k,n], register-tiled. Per-element
 * accumulation order is identical to gemmF32Reference (ascending k,
 * same zero skip), so results are bit-identical. Reentrant; uses no
 * scratch memory.
 */
void gemmF32(const float *a, const float *b, float *c, std::size_t m,
             std::size_t k, std::size_t n);

/**
 * C[m,n] += A[m,k] · B[k,n] over int8 operands with explicit int32
 * accumulation (exact for any K up to ~131k even at saturated ±127
 * inputs).
 */
void gemmS8(const std::int8_t *a, const std::int8_t *b,
            std::int32_t *c, std::size_t m, std::size_t k,
            std::size_t n);

} // namespace toltiers::tensor::kernels

#endif // TOLTIERS_TENSOR_KERNELS_KERNELS_HH
