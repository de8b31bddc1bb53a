#include "varade/core/baselines/ar_lstm.hpp"

#include <cmath>

#include "varade/core/trainer.hpp"
#include "varade/nn/loss.hpp"

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
  Rng rng(config_.seed);
  auto model = build_model(train.n_channels(), rng);
  std::vector<float> history = train_minibatches(
      train, {name(), {config_.window, config_.train_stride}, config_.epochs, config_.learning_rate},
      model->parameters(), rng, [&](const Tensor& contexts, const Tensor& targets) {
        const nn::LossResult loss = nn::mse_loss(model->forward(contexts), targets);
        model->backward_params(loss.grad);
        return loss.value;
      });
  n_channels_ = train.n_channels();
  model_ = std::move(model);
  loss_history_ = std::move(history);
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
