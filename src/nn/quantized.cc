#include "nn/quantized.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "tensor/arena.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/ops.hh"

namespace toltiers::nn {

using common::panic;
using tensor::Tensor;

// ---------------------------------------------------------------- QDense

QDense::QDense(const Tensor &w, const Tensor &b,
               const tensor::QuantParams &in_quant)
    : in_(w.dim(0)), out_(w.dim(1)), inQuant_(in_quant)
{
    TT_ASSERT(w.rank() == 2, "QDense expects [in, out] weights");
    TT_ASSERT(b.rank() == 1 && b.dim(0) == out_,
              "QDense bias shape mismatch");

    // Per-output-channel quantization: channels are the columns of
    // the [in, out] weight matrix, so quantize a transposed copy and
    // transpose back into GEMM layout.
    std::vector<float> wt(in_ * out_);
    for (std::size_t k = 0; k < in_; ++k) {
        for (std::size_t j = 0; j < out_; ++j)
            wt[j * in_ + k] = w.data()[k * out_ + j];
    }
    std::vector<std::int8_t> qwt(in_ * out_);
    wScale_ =
        tensor::quantizeWeightsPerChannel(wt.data(), out_, in_,
                                          qwt.data());
    qw_.resize(in_ * out_);
    colSum_.assign(out_, 0);
    for (std::size_t j = 0; j < out_; ++j) {
        for (std::size_t k = 0; k < in_; ++k) {
            std::int8_t q = qwt[j * in_ + k];
            qw_[k * out_ + j] = q;
            colSum_[j] += q;
        }
    }
    bias_.assign(b.data(), b.data() + out_);
}

Tensor
QDense::infer(const Tensor &in) const
{
    TT_ASSERT(in.rank() == 2 && in.dim(1) == in_,
              "QDense input shape mismatch");
    std::size_t m = in.dim(0);
    tensor::ScratchBuffer<std::int8_t> qin(m * in_);
    tensor::quantizeBuffer(in.data(), m * in_, inQuant_, qin.data());
    tensor::ScratchBuffer<std::int32_t> acc(m * out_);
    std::fill_n(acc.data(), m * out_, 0);
    tensor::kernels::gemmS8(qin.data(), qw_.data(), acc.data(), m,
                            in_, out_);

    Tensor out({m, out_});
    float sa = inQuant_.scale;
    std::int32_t za = inQuant_.zeroPoint;
    for (std::size_t i = 0; i < m; ++i) {
        const std::int32_t *arow = acc.data() + i * out_;
        float *orow = out.data() + i * out_;
        for (std::size_t j = 0; j < out_; ++j) {
            orow[j] = static_cast<float>(arow[j] - za * colSum_[j]) *
                          (sa * wScale_[j]) +
                      bias_[j];
        }
    }
    return out;
}

std::uint64_t
QDense::macs(const tensor::Shape &in) const
{
    TT_ASSERT(in.size() == 2, "QDense expects [N, features]");
    return tensor::denseMacs(in[0], in_, out_);
}

Tensor
QDense::backward(const Tensor &)
{
    panic("QDense is inference-only: no backward pass");
}

// --------------------------------------------------------------- QConv2d

QConv2d::QConv2d(const Tensor &w, const Tensor &b,
                 const tensor::ConvGeometry &g,
                 const tensor::QuantParams &in_quant)
    : g_(g), filters_(w.dim(0)), cIn_(w.dim(1)), inQuant_(in_quant)
{
    TT_ASSERT(w.rank() == 4 && w.dim(2) == g.kernel &&
                  w.dim(3) == g.kernel,
              "QConv2d weight shape mismatch");
    TT_ASSERT(b.rank() == 1 && b.dim(0) == filters_,
              "QConv2d bias shape mismatch");

    std::size_t ckk = cIn_ * g_.kernel * g_.kernel;
    qw_.resize(filters_ * ckk);
    wScale_ = tensor::quantizeWeightsPerChannel(w.data(), filters_,
                                                ckk, qw_.data());
    rowSum_.assign(filters_, 0);
    for (std::size_t f = 0; f < filters_; ++f) {
        for (std::size_t k = 0; k < ckk; ++k)
            rowSum_[f] += qw_[f * ckk + k];
    }
    bias_.assign(b.data(), b.data() + filters_);
}

Tensor
QConv2d::infer(const Tensor &in) const
{
    TT_ASSERT(in.rank() == 4 && in.dim(1) == cIn_,
              "QConv2d input shape mismatch");
    std::size_t n = in.dim(0);
    std::size_t oh = g_.outExtent(in.dim(2));
    std::size_t ow = g_.outExtent(in.dim(3));
    std::size_t ckk = cIn_ * g_.kernel * g_.kernel;
    std::size_t ohow = oh * ow;

    Tensor out({n, filters_, oh, ow});
    float sa = inQuant_.scale;
    std::int32_t za = inQuant_.zeroPoint;
    tensor::ScratchBuffer<std::int8_t> qcols(ckk * ohow);
    tensor::ScratchBuffer<std::int32_t> acc(filters_ * ohow);
    for (std::size_t s = 0; s < n; ++s) {
        Tensor cols = tensor::im2col(in, s, g_);
        tensor::quantizeBuffer(cols.data(), ckk * ohow, inQuant_,
                               qcols.data());
        std::fill_n(acc.data(), filters_ * ohow, 0);
        tensor::kernels::gemmS8(qw_.data(), qcols.data(), acc.data(),
                                filters_, ckk, ohow);
        for (std::size_t f = 0; f < filters_; ++f) {
            const std::int32_t *arow = acc.data() + f * ohow;
            float *orow = out.data() + ((s * filters_ + f) * ohow);
            float scale = sa * wScale_[f];
            std::int32_t corr = za * rowSum_[f];
            for (std::size_t i = 0; i < ohow; ++i) {
                orow[i] = static_cast<float>(arow[i] - corr) * scale +
                          bias_[f];
            }
        }
    }
    return out;
}

std::uint64_t
QConv2d::macs(const tensor::Shape &in) const
{
    TT_ASSERT(in.size() == 4, "QConv2d expects NCHW");
    return tensor::convMacs(in[0], cIn_, in[2], in[3], filters_, g_);
}

Tensor
QConv2d::backward(const Tensor &)
{
    panic("QConv2d is inference-only: no backward pass");
}

// ------------------------------------------------------- quantizeNetwork

Network
quantizeNetwork(const Network &net, const Tensor &calibration,
                std::string name)
{
    Network out(std::move(name));
    Tensor x = calibration;
    for (const auto &layer : net.layers()) {
        const Layer *l = layer.get();
        float lo = 0.0f, hi = 0.0f;
        tensor::bufferRange(x.data(), x.size(), lo, hi);
        if (auto *d = dynamic_cast<const Dense *>(l)) {
            out.add(std::make_unique<QDense>(
                d->weight(), d->bias(),
                tensor::chooseQuantParams(lo, hi)));
        } else if (auto *c = dynamic_cast<const Conv2d *>(l)) {
            out.add(std::make_unique<QConv2d>(
                c->weight(), c->bias(), c->geometry(),
                tensor::chooseQuantParams(lo, hi)));
        } else if (dynamic_cast<const Relu *>(l) != nullptr) {
            out.add(std::make_unique<Relu>());
        } else if (auto *p = dynamic_cast<const MaxPool2d *>(l)) {
            out.add(std::make_unique<MaxPool2d>(p->kernel(),
                                                p->stride()));
        } else if (dynamic_cast<const GlobalAvgPool *>(l) != nullptr) {
            out.add(std::make_unique<GlobalAvgPool>());
        } else if (dynamic_cast<const Flatten *>(l) != nullptr) {
            out.add(std::make_unique<Flatten>());
        } else {
            panic("quantizeNetwork: unsupported layer ", l->name());
        }
        x = l->infer(x);
    }
    return out;
}

} // namespace toltiers::nn
