#include "nn/layer.hh"

#include "common/logging.hh"

namespace toltiers::nn {

using tensor::Tensor;

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t c_in, std::size_t f,
               const tensor::ConvGeometry &g, common::Pcg32 &rng)
    : g_(g)
{
    Tensor w({f, c_in, g.kernel, g.kernel});
    w.randomKaiming(rng, c_in * g.kernel * g.kernel);
    w_.init(std::move(w));
    b_.init(Tensor({f}));
}

Tensor
Conv2d::infer(const Tensor &in) const
{
    return tensor::conv2dForward(in, w_.value, b_.value, g_);
}

Tensor
Conv2d::forward(const Tensor &in)
{
    input_ = in;
    return infer(in);
}

std::uint64_t
Conv2d::macs(const tensor::Shape &in) const
{
    TT_ASSERT(in.size() == 4, "conv2d expects NCHW");
    return tensor::convMacs(in[0], in[1], in[2], in[3],
                            w_.value.dim(0), g_);
}

Tensor
Conv2d::backward(const Tensor &d_out)
{
    auto grads = tensor::conv2dBackward(input_, w_.value, d_out, g_);
    w_.grad += grads.dW;
    b_.grad += grads.dBias;
    return std::move(grads.dIn);
}

// ----------------------------------------------------------------- Dense

Dense::Dense(std::size_t in, std::size_t out, common::Pcg32 &rng)
{
    Tensor w({in, out});
    w.randomKaiming(rng, in);
    w_.init(std::move(w));
    b_.init(Tensor({out}));
}

Tensor
Dense::infer(const Tensor &in) const
{
    TT_ASSERT(in.rank() == 2, "dense expects [N, features]");
    Tensor out = tensor::matmul(in, w_.value);
    tensor::addBiasRows(out, b_.value);
    return out;
}

Tensor
Dense::forward(const Tensor &in)
{
    input_ = in;
    return infer(in);
}

std::uint64_t
Dense::macs(const tensor::Shape &in) const
{
    TT_ASSERT(in.size() == 2, "dense expects [N, features]");
    return tensor::denseMacs(in[0], in[1], w_.value.dim(1));
}

Tensor
Dense::backward(const Tensor &d_out)
{
    // dW = in^T * dOut ; dIn = dOut * W^T ; db = column sums of dOut.
    w_.grad += tensor::matmulTransA(input_, d_out);
    std::size_t m = d_out.dim(0), n = d_out.dim(1);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            b_.grad[j] += d_out.at2(i, j);
    }
    return tensor::matmulTransB(d_out, w_.value);
}

// ------------------------------------------------------------------ Relu

Tensor
Relu::infer(const Tensor &in) const
{
    return tensor::reluForward(in);
}

Tensor
Relu::forward(const Tensor &in)
{
    input_ = in;
    return infer(in);
}

Tensor
Relu::backward(const Tensor &d_out)
{
    return tensor::reluBackward(d_out, input_);
}

// ------------------------------------------------------------- MaxPool2d

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride)
{
    TT_ASSERT(kernel > 0 && stride > 0, "pool kernel/stride positive");
}

Tensor
MaxPool2d::infer(const Tensor &in) const
{
    return tensor::maxPool2dForward(in, kernel_, stride_, nullptr);
}

Tensor
MaxPool2d::forward(const Tensor &in)
{
    inShape_ = in.shape();
    return tensor::maxPool2dForward(in, kernel_, stride_, &argmax_);
}

Tensor
MaxPool2d::backward(const Tensor &d_out)
{
    return tensor::maxPool2dBackward(d_out, argmax_, inShape_);
}

// --------------------------------------------------------- GlobalAvgPool

Tensor
GlobalAvgPool::infer(const Tensor &in) const
{
    return tensor::globalAvgPoolForward(in);
}

Tensor
GlobalAvgPool::forward(const Tensor &in)
{
    inShape_ = in.shape();
    return infer(in);
}

Tensor
GlobalAvgPool::backward(const Tensor &d_out)
{
    return tensor::globalAvgPoolBackward(d_out, inShape_);
}

// --------------------------------------------------------------- Flatten

Tensor
Flatten::infer(const Tensor &in) const
{
    TT_ASSERT(in.rank() >= 2, "flatten expects a batch dimension");
    Tensor out = in;
    std::size_t n = in.dim(0);
    out.reshape({n, in.size() / n});
    return out;
}

Tensor
Flatten::forward(const Tensor &in)
{
    inShape_ = in.shape();
    return infer(in);
}

Tensor
Flatten::backward(const Tensor &d_out)
{
    Tensor d_in = d_out;
    d_in.reshape(inShape_);
    return d_in;
}

} // namespace toltiers::nn
