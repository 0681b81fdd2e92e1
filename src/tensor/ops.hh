/**
 * @file
 * Neural-network math kernels over Tensor: matmul, im2col
 * convolution, pooling, activations, and the softmax/cross-entropy
 * head, each with the backward pass needed for SGD training.
 *
 * Every kernel also exposes a multiply-accumulate (MAC) count, which
 * the serving layer uses as the deterministic work-unit latency of a
 * model version (see DESIGN.md, substitution table).
 */

#ifndef TOLTIERS_TENSOR_OPS_HH
#define TOLTIERS_TENSOR_OPS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace toltiers::tensor {

/** C[m,n] = A[m,k] * B[k,n]. */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C[m,n] = A^T[m,k] * B[k,n] where A is stored as [k,m]. */
Tensor matmulTransA(const Tensor &a, const Tensor &b);

/** C[m,n] = A[m,k] * B^T[k,n] where B is stored as [n,k]. */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/** Add bias[n] to every row of x[m,n] in place. */
void addBiasRows(Tensor &x, const Tensor &bias);

/** out = max(x, 0), elementwise. */
Tensor reluForward(const Tensor &x);

/** dIn = dOut where x > 0 else 0. */
Tensor reluBackward(const Tensor &d_out, const Tensor &x);

/** Geometry of a convolution or pooling window sweep. */
struct ConvGeometry
{
    std::size_t kernel = 3;
    std::size_t stride = 1;
    std::size_t pad = 1;

    /** Output spatial extent for an input extent. */
    std::size_t outExtent(std::size_t in) const
    {
        return (in + 2 * pad - kernel) / stride + 1;
    }
};

/**
 * Lower one NCHW sample into a column matrix of shape
 * [C*KH*KW, OH*OW] for matmul-based convolution.
 */
Tensor im2col(const Tensor &in, std::size_t sample,
              const ConvGeometry &g);

/**
 * Scatter a column matrix gradient back into an NCHW sample gradient
 * (the adjoint of im2col). Accumulates into d_in.
 */
void col2im(const Tensor &cols, Tensor &d_in, std::size_t sample,
            const ConvGeometry &g);

/**
 * conv2d forward: in [N,C,H,W], w [F,C,KH,KW], bias [F] ->
 * out [N,F,OH,OW].
 */
Tensor conv2dForward(const Tensor &in, const Tensor &w,
                     const Tensor &bias, const ConvGeometry &g);

/** Gradients of conv2d; all outputs are allocated by the call. */
struct Conv2dGrads
{
    Tensor dIn;
    Tensor dW;
    Tensor dBias;
};

Conv2dGrads conv2dBackward(const Tensor &in, const Tensor &w,
                           const Tensor &d_out, const ConvGeometry &g);

/** Max-pool forward result: pooled values plus argmax flat indices. */
struct PoolResult
{
    Tensor out;
    std::vector<std::uint32_t> argmax; //!< Flat input index per output.
};

/** 2-D max pooling (no padding). */
PoolResult maxPool2dForward(const Tensor &in, std::size_t kernel,
                            std::size_t stride);

/**
 * Allocation-lean max pooling: returns the pooled tensor and, when
 * argmax is non-null, writes the argmax indices into that
 * caller-owned buffer (resized in place, so a warm buffer is
 * reused). Inference passes null and records nothing.
 */
Tensor maxPool2dForward(const Tensor &in, std::size_t kernel,
                        std::size_t stride,
                        std::vector<std::uint32_t> *argmax);

/** Route gradients back through the recorded argmax indices. */
Tensor maxPool2dBackward(const Tensor &d_out,
                         const std::vector<std::uint32_t> &argmax,
                         const Shape &in_shape);

/** Global average pool: [N,C,H,W] -> [N,C]. */
Tensor globalAvgPoolForward(const Tensor &in);

/** Backward of global average pooling. */
Tensor globalAvgPoolBackward(const Tensor &d_out,
                             const Shape &in_shape);

/** Row-wise softmax of logits [m,n], numerically stabilized. */
Tensor softmaxRows(const Tensor &logits);

/**
 * Mean cross-entropy of row-softmax probabilities against integer
 * labels; probs [m,n], labels.size() == m.
 */
double crossEntropy(const Tensor &probs,
                    const std::vector<std::size_t> &labels);

/**
 * Gradient of mean cross-entropy w.r.t. logits given softmax
 * probabilities: (probs - onehot) / m.
 */
Tensor softmaxXentBackward(const Tensor &probs,
                           const std::vector<std::size_t> &labels);

/** MACs of a dense layer [m,k] x [k,n]. */
std::uint64_t denseMacs(std::size_t m, std::size_t k, std::size_t n);

/** MACs of a convolution for the given shapes. */
std::uint64_t convMacs(std::size_t n, std::size_t c, std::size_t h,
                       std::size_t w, std::size_t f,
                       const ConvGeometry &g);

} // namespace toltiers::tensor

#endif // TOLTIERS_TENSOR_OPS_HH
