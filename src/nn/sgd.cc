#include "nn/sgd.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "tensor/ops.hh"

namespace toltiers::nn {

using tensor::Tensor;

SgdTrainer::SgdTrainer(SgdConfig cfg) : cfg_(cfg)
{
    TT_ASSERT(cfg_.batchSize > 0, "batch size must be positive");
    TT_ASSERT(cfg_.learningRate > 0.0, "learning rate must be positive");
}

tensor::Tensor
gatherBatch(const Tensor &images, const std::vector<std::size_t> &rows)
{
    TT_ASSERT(images.rank() >= 2, "gatherBatch needs a batch dim");
    std::size_t stride = images.size() / images.dim(0);
    tensor::Shape shape = images.shape();
    shape[0] = rows.size();
    Tensor out(shape);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        TT_ASSERT(rows[i] < images.dim(0), "batch row out of range");
        std::memcpy(out.data() + i * stride,
                    images.data() + rows[i] * stride,
                    stride * sizeof(float));
    }
    return out;
}

void
SgdTrainer::step(Network &net, double lr)
{
    for (Param *p : net.params()) {
        auto n = p->value.size();
        float flr = static_cast<float>(lr);
        float mom = static_cast<float>(cfg_.momentum);
        float wd = static_cast<float>(cfg_.weightDecay);
        for (std::size_t i = 0; i < n; ++i) {
            float g = p->grad[i] + wd * p->value[i];
            p->velocity[i] = mom * p->velocity[i] - flr * g;
            p->value[i] += p->velocity[i];
        }
    }
}

void
SgdTrainer::train(Network &net, const Tensor &images,
                  const std::vector<std::size_t> &labels,
                  common::Pcg32 &rng,
                  const std::function<void(const EpochStats &)>
                      &callback)
{
    std::size_t n = images.dim(0);
    TT_ASSERT(labels.size() == n, "label count mismatch");

    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;

    double lr = cfg_.learningRate;
    for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
        rng.shuffle(order);
        double loss_sum = 0.0;
        std::size_t correct = 0;
        std::size_t batches = 0;

        for (std::size_t start = 0; start < n;
             start += cfg_.batchSize) {
            std::size_t end = std::min(n, start + cfg_.batchSize);
            std::vector<std::size_t> rows(order.begin() + start,
                                          order.begin() + end);
            Tensor batch = gatherBatch(images, rows);
            std::vector<std::size_t> batch_labels(rows.size());
            for (std::size_t i = 0; i < rows.size(); ++i)
                batch_labels[i] = labels[rows[i]];

            net.zeroGrad();
            Tensor logits = net.forward(batch);
            Tensor probs = tensor::softmaxRows(logits);
            loss_sum += tensor::crossEntropy(probs, batch_labels);
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const float *row =
                    probs.data() + i * probs.dim(1);
                std::size_t best = 0;
                for (std::size_t j = 1; j < probs.dim(1); ++j) {
                    if (row[j] > row[best])
                        best = j;
                }
                if (best == batch_labels[i])
                    ++correct;
            }
            Tensor d =
                tensor::softmaxXentBackward(probs, batch_labels);
            net.backward(d);
            step(net, lr);
            ++batches;
        }

        if (callback) {
            EpochStats stats;
            stats.epoch = epoch;
            stats.loss = loss_sum / static_cast<double>(batches);
            stats.accuracy =
                static_cast<double>(correct) / static_cast<double>(n);
            callback(stats);
        }
        lr *= cfg_.lrDecay;
    }
}

EvalResult
evaluate(Network &net, const Tensor &images,
         const std::vector<std::size_t> &labels, std::size_t batch_size)
{
    std::size_t n = images.dim(0);
    TT_ASSERT(labels.size() == n, "label count mismatch");
    TT_ASSERT(batch_size > 0, "batch size must be positive");

    EvalResult res;
    res.predictions.reserve(n);
    std::size_t wrong = 0;
    double conf_sum = 0.0;

    for (std::size_t start = 0; start < n; start += batch_size) {
        std::size_t end = std::min(n, start + batch_size);
        std::vector<std::size_t> rows;
        rows.reserve(end - start);
        for (std::size_t i = start; i < end; ++i)
            rows.push_back(i);
        Tensor batch = gatherBatch(images, rows);
        auto preds = net.predict(batch);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            if (preds[i].label != labels[start + i])
                ++wrong;
            conf_sum += preds[i].confidence;
            res.predictions.push_back(preds[i]);
        }
    }
    res.top1Error = static_cast<double>(wrong) / static_cast<double>(n);
    res.meanConfidence = conf_sum / static_cast<double>(n);
    return res;
}

} // namespace toltiers::nn
