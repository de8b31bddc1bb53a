#include "varade/core/baselines/ar_lstm.hpp"

#include <cmath>
#include <cstdio>

#include "varade/core/trainer.hpp"
#include "varade/nn/loss.hpp"
#include "varade/nn/optimizer.hpp"

namespace varade::core {

ArLstmDetector::ArLstmDetector(ArLstmConfig config) : config_(config) {
  check(config_.n_layers >= 1, "AR-LSTM needs at least one recurrent layer");
  check(config_.hidden >= 1, "AR-LSTM hidden size must be positive");
}

std::unique_ptr<nn::Sequential> ArLstmDetector::build_model(Index n_channels, Rng& rng) const {
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Lstm>(n_channels, config_.hidden, rng);
  for (int l = 1; l < config_.n_layers; ++l)
    model->emplace<nn::Lstm>(config_.hidden, config_.hidden, rng);
  model->emplace<nn::LastTimeStep>();
  // Two fully connected layers as per the paper.
  model->emplace<nn::Linear>(config_.hidden, config_.hidden / 2, rng);
  model->emplace<nn::ReLU>();
  model->emplace<nn::Linear>(config_.hidden / 2, n_channels, rng);
  return model;
}

std::unique_ptr<AnomalyDetector> ArLstmDetector::clone_fitted() const {
  check(fitted(), "cannot clone an unfitted AR-LSTM detector");
  auto clone = std::make_unique<ArLstmDetector>(config_);
  clone->n_channels_ = n_channels_;
  Rng rng(config_.seed);
  clone->model_ = build_model(n_channels_, rng);
  nn::copy_parameter_values(model_->parameters(), clone->model_->parameters());
  clone->loss_history_ = loss_history_;
  return clone;
}

void ArLstmDetector::fit(const data::MultivariateSeries& train) {
  check(train.length() > config_.window + 1, "AR-LSTM training series shorter than one window");
  n_channels_ = train.n_channels();
  Rng rng(config_.seed);
  model_ = build_model(n_channels_, rng);

  const data::WindowDataset dataset(train, {config_.window, config_.train_stride});
  check(dataset.size() > 0, "no training windows available");

  nn::Adam optimizer(config_.learning_rate);
  auto params = model_->parameters();
  loss_history_.clear();

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto batches = make_batches(dataset.size(), config_.batch_size, rng);
    double epoch_loss = 0.0;
    long n_batches = 0;
    for (const auto& batch : batches) {
      Tensor contexts;
      Tensor targets;
      dataset.gather(batch, contexts, targets);

      model_->zero_grad();
      const Tensor pred = model_->forward(contexts);
      const nn::LossResult loss = nn::mse_loss(pred, targets);
      check(std::isfinite(loss.value), "AR-LSTM training diverged (non-finite loss)");
      model_->backward(loss.grad);
      nn::clip_grad_norm(params, config_.grad_clip);
      optimizer.step(params);

      epoch_loss += loss.value;
      ++n_batches;
    }
    const float mean_loss = static_cast<float>(epoch_loss / std::max(1L, n_batches));
    loss_history_.push_back(mean_loss);
    if (config_.verbose)
      std::printf("[AR-LSTM] epoch %d/%d  loss %.5f\n", epoch + 1, config_.epochs, mean_loss);
  }
}

Tensor ArLstmDetector::forecast(const Tensor& context) {
  check(fitted(), "AR-LSTM forecast before fit");
  const Tensor batch = context.reshaped({1, context.dim(0), context.dim(1)});
  // Inference-only forward: identical arithmetic to forward(), no activation
  // caches.
  return model_->forward_inference(batch).reshaped({n_channels_});
}

void ArLstmDetector::score_batch(const Tensor& contexts, const Tensor& observed, float* out) {
  check(fitted(), "AR-LSTM scoring before fit");
  check_batch_args(contexts, observed);
  check_batch_channels(contexts, n_channels_);
  const Index b = contexts.dim(0);
  const Index c = contexts.dim(1);
  if (b == 0) return;
  const Tensor pred = model_->forward_inference(contexts);  // [B, C]
  for (Index r = 0; r < b; ++r) {
    double acc = 0.0;
    for (Index ch = 0; ch < c; ++ch) {
      const double d = static_cast<double>(pred[r * c + ch]) - observed[r * c + ch];
      acc += d * d;
    }
    out[r] = static_cast<float>(std::sqrt(acc));
  }
}

edge::ModelCost ArLstmDetector::cost() const {
  check(fitted(), "AR-LSTM cost before fit");
  edge::ModelCost cost;
  cost.name = name();
  const Shape in{n_channels_, config_.window};
  cost.flops = static_cast<double>(model_->flops(in));
  long param_bytes = 0;
  for (nn::Parameter* p : model_->parameters())
    param_bytes += p->value.numel() * static_cast<long>(sizeof(float));
  cost.param_bytes = static_cast<double>(param_bytes);
  cost.activation_bytes =
      static_cast<double>(config_.n_layers) * config_.hidden * config_.window * sizeof(float);
  // Recurrence serialises execution: the framework dispatches per layer per
  // time chunk (cuDNN processes ~32-step chunks), which is what makes the
  // AR-LSTM slow despite high GPU utilisation (paper section 4.4).
  cost.n_ops = config_.n_layers * static_cast<int>(std::max<Index>(1, config_.window / 36)) + 2;
  cost.runs_on_gpu = true;
  cost.gpu_resident_spin = true;  // persistent recurrent kernels
  cost.parallel_efficiency = 0.35;
  cost.preprocess_flops = static_cast<double>(n_channels_) * config_.window * 4.0;
  return cost;
}

}  // namespace varade::core
