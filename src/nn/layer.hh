/**
 * @file
 * Layer abstraction for the from-scratch CNN substrate.
 *
 * Every layer has two forward entries. infer() is the inference
 * path: const, so it writes no member and any number of threads may
 * run one layer at once; its temporaries come from the calling
 * thread's ArenaScope when one is live (tensor/arena.hh). forward()
 * is the training path: it caches whatever backward() needs, so a
 * network instance must not interleave two half-finished batches.
 * Each trainable parameter is exposed through Param so the optimizer
 * can update all layers uniformly.
 */

#ifndef TOLTIERS_NN_LAYER_HH
#define TOLTIERS_NN_LAYER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace toltiers::nn {

/** One trainable tensor with its gradient and momentum buffer. */
struct Param
{
    tensor::Tensor value;
    tensor::Tensor grad;
    tensor::Tensor velocity;

    /** Allocate grad/velocity to match value's shape. */
    void
    init(tensor::Tensor v)
    {
        value = std::move(v);
        grad = tensor::Tensor(value.shape());
        velocity = tensor::Tensor(value.shape());
    }
};

/** Abstract differentiable layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Layer type name for logging and serialization. */
    virtual std::string name() const = 0;

    /**
     * Inference forward pass. Reentrant: it writes no member, so
     * concurrent calls on one layer are safe.
     */
    virtual tensor::Tensor infer(const tensor::Tensor &in) const = 0;

    /**
     * Training forward pass: caches the activations backward()
     * needs. The output equals infer()'s bit for bit.
     */
    virtual tensor::Tensor forward(const tensor::Tensor &in) = 0;

    /** Backward pass; returns the gradient w.r.t. the input. */
    virtual tensor::Tensor backward(const tensor::Tensor &d_out) = 0;

    /** Trainable parameters (empty for stateless layers). */
    virtual std::vector<Param *> params() { return {}; }

    /** MACs of one forward pass over an input of this shape. */
    virtual std::uint64_t macs(const tensor::Shape &) const
    {
        return 0;
    }
};

/** 2-D convolution with bias. */
class Conv2d : public Layer
{
  public:
    /**
     * @param c_in input channels, @param f output filters,
     * @param g window geometry, @param rng weight initializer source.
     */
    Conv2d(std::size_t c_in, std::size_t f,
           const tensor::ConvGeometry &g, common::Pcg32 &rng);

    std::string name() const override { return "conv2d"; }
    tensor::Tensor infer(const tensor::Tensor &in) const override;
    tensor::Tensor forward(const tensor::Tensor &in) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;
    std::vector<Param *> params() override { return {&w_, &b_}; }
    std::uint64_t macs(const tensor::Shape &in) const override;

    const tensor::ConvGeometry &geometry() const { return g_; }

    /** Trained weights [F, C, KH, KW] (read-only, for quantization). */
    const tensor::Tensor &weight() const { return w_.value; }

    /** Trained bias [F] (read-only, for quantization). */
    const tensor::Tensor &bias() const { return b_.value; }

  private:
    tensor::ConvGeometry g_;
    Param w_;
    Param b_;
    tensor::Tensor input_;
};

/** Fully connected layer with bias; input [N, in], output [N, out]. */
class Dense : public Layer
{
  public:
    Dense(std::size_t in, std::size_t out, common::Pcg32 &rng);

    std::string name() const override { return "dense"; }
    tensor::Tensor infer(const tensor::Tensor &in) const override;
    tensor::Tensor forward(const tensor::Tensor &in) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;
    std::vector<Param *> params() override { return {&w_, &b_}; }
    std::uint64_t macs(const tensor::Shape &in) const override;

    /** Trained weights [in, out] (read-only, for quantization). */
    const tensor::Tensor &weight() const { return w_.value; }

    /** Trained bias [out] (read-only, for quantization). */
    const tensor::Tensor &bias() const { return b_.value; }

  private:
    Param w_; //!< [in, out]
    Param b_; //!< [out]
    tensor::Tensor input_;
};

/** Elementwise rectified linear unit. */
class Relu : public Layer
{
  public:
    std::string name() const override { return "relu"; }
    tensor::Tensor infer(const tensor::Tensor &in) const override;
    tensor::Tensor forward(const tensor::Tensor &in) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;

  private:
    tensor::Tensor input_;
};

/** 2-D max pooling (no padding). */
class MaxPool2d : public Layer
{
  public:
    MaxPool2d(std::size_t kernel, std::size_t stride);

    std::string name() const override { return "maxpool2d"; }
    tensor::Tensor infer(const tensor::Tensor &in) const override;
    tensor::Tensor forward(const tensor::Tensor &in) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;

    std::size_t kernel() const { return kernel_; }
    std::size_t stride() const { return stride_; }

  private:
    std::size_t kernel_;
    std::size_t stride_;
    std::vector<std::uint32_t> argmax_;
    tensor::Shape inShape_;
};

/** Global average pooling: [N,C,H,W] -> [N,C]. */
class GlobalAvgPool : public Layer
{
  public:
    std::string name() const override { return "gap"; }
    tensor::Tensor infer(const tensor::Tensor &in) const override;
    tensor::Tensor forward(const tensor::Tensor &in) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;

  private:
    tensor::Shape inShape_;
};

/** Collapse [N,C,H,W] into [N, C*H*W]. */
class Flatten : public Layer
{
  public:
    std::string name() const override { return "flatten"; }
    tensor::Tensor infer(const tensor::Tensor &in) const override;
    tensor::Tensor forward(const tensor::Tensor &in) override;
    tensor::Tensor backward(const tensor::Tensor &d_out) override;

  private:
    tensor::Shape inShape_;
};

} // namespace toltiers::nn

#endif // TOLTIERS_NN_LAYER_HH
