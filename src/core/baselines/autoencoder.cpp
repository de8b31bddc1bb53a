#include "varade/core/baselines/autoencoder.hpp"

#include <cmath>

#include "varade/core/trainer.hpp"
#include "varade/nn/loss.hpp"

namespace varade::core {

AutoencoderDetector::AutoencoderDetector(AutoencoderConfig config) : config_(config) {
  check(config_.window >= 4 && config_.window % 4 == 0,
        "AE window must be a multiple of 4 (two stride-2 stages)");
  check(config_.base_channels >= 1, "base_channels must be positive");
}

std::unique_ptr<nn::Sequential> AutoencoderDetector::build_model(Index n_channels,
                                                                 Rng& rng) const {
  const Index f = config_.base_channels;
  auto model = std::make_unique<nn::Sequential>();
  // Encoder.
  model->emplace<nn::Conv1d>(n_channels, f, 2, 2, 0, rng);
  model->emplace<nn::ResidualBlock1d>(f, rng);
  model->emplace<nn::ResidualBlock1d>(f, rng);
  model->emplace<nn::ResidualBlock1d>(f, rng);
  model->emplace<nn::Conv1d>(f, 2 * f, 2, 2, 0, rng);
  // Decoder (mirror).
  model->emplace<nn::ConvTranspose1d>(2 * f, f, 2, 2, rng);
  model->emplace<nn::ResidualBlock1d>(f, rng);
  model->emplace<nn::ResidualBlock1d>(f, rng);
  model->emplace<nn::ResidualBlock1d>(f, rng);
  model->emplace<nn::ConvTranspose1d>(f, n_channels, 2, 2, rng);
  return model;
}

std::unique_ptr<AnomalyDetector> AutoencoderDetector::clone_fitted() const {
  check(fitted(), "cannot clone an unfitted AE detector");
  auto clone = std::make_unique<AutoencoderDetector>(config_);
  clone->n_channels_ = n_channels_;
  Rng rng(config_.seed);
  clone->model_ = build_model(n_channels_, rng);
  nn::copy_parameter_values(model_->parameters(), clone->model_->parameters());
  clone->loss_history_ = loss_history_;
  return clone;
}

void AutoencoderDetector::fit(const data::MultivariateSeries& train) {
  Rng rng(config_.seed);
  auto model = build_model(train.n_channels(), rng);
  std::vector<float> history = train_minibatches(
      train, {name(), {config_.window, config_.train_stride}, config_.epochs, config_.learning_rate},
      model->parameters(), rng, [&](const Tensor& contexts, const Tensor& /*targets*/) {
        const nn::LossResult loss = nn::mse_loss(model->forward(contexts), contexts);
        model->backward(loss.grad);
        return loss.value;
      });
  n_channels_ = train.n_channels();
  model_ = std::move(model);
  loss_history_ = std::move(history);
}

Tensor AutoencoderDetector::reconstruct(const Tensor& window) {
  check(fitted(), "AE reconstruct before fit");
  const Tensor batch = window.reshaped({1, window.dim(0), window.dim(1)});
  // Inference-only forward: identical arithmetic to forward(), no activation
  // caches.
  return model_->forward_inference(batch).reshaped(window.shape());
}

float AutoencoderDetector::window_reconstruction_error(const Tensor& window) {
  const Tensor recon = reconstruct(window);
  double acc = 0.0;
  for (Index i = 0; i < window.numel(); ++i) {
    const double d = static_cast<double>(recon[i]) - window[i];
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(window.numel()));
}

void AutoencoderDetector::score_batch(const Tensor& contexts, const Tensor& observed, float* out) {
  check(fitted(), "AE scoring before fit");
  check_batch_args(contexts, observed);
  check_batch_channels(contexts, n_channels_);
  const Index b = contexts.dim(0);
  const Index c = contexts.dim(1);
  const Index t = contexts.dim(2);
  if (b == 0) return;
  // Gather the windows shifted to end at the observation, run the batched
  // reconstruction forward, and take the last-step residual per row.
  Tensor windows({b, c, t});
  for (Index r = 0; r < b; ++r) {
    const float* ctx = contexts.data() + r * c * t;
    const float* obs = observed.data() + r * c;
    float* win = windows.data() + r * c * t;
    for (Index ch = 0; ch < c; ++ch) {
      for (Index s = 0; s + 1 < t; ++s) win[ch * t + s] = ctx[ch * t + s + 1];
      win[ch * t + t - 1] = obs[ch];
    }
  }
  const Tensor recon = model_->forward_inference(windows);
  for (Index r = 0; r < b; ++r) {
    const float* rec = recon.data() + r * c * t;
    const float* win = windows.data() + r * c * t;
    double acc = 0.0;
    for (Index ch = 0; ch < c; ++ch) {
      const double d =
          static_cast<double>(rec[ch * t + t - 1]) - static_cast<double>(win[ch * t + t - 1]);
      acc += d * d;
    }
    out[r] = static_cast<float>(std::sqrt(acc));
  }
}

edge::ModelCost AutoencoderDetector::cost() const {
  check(fitted(), "AE cost before fit");
  edge::ModelCost cost;
  cost.name = name();
  const Shape in{n_channels_, config_.window};
  cost.flops = static_cast<double>(model_->flops(in));
  long param_bytes = 0;
  for (nn::Parameter* p : model_->parameters())
    param_bytes += p->value.numel() * static_cast<long>(sizeof(float));
  cost.param_bytes = static_cast<double>(param_bytes);
  // Residual blocks keep full-resolution feature maps alive.
  cost.activation_bytes = 8.0 * static_cast<double>(config_.base_channels) *
                          (config_.window / 2.0) * sizeof(float);
  // Eager execution dispatches every conv/relu/add of every residual block;
  // the reconstruction path touches each feature map twice (enc + dec).
  cost.n_ops = 200;  // calibrated: TF2.11-eager ResNet-AE op count incl. grad-free tape setup
  cost.runs_on_gpu = true;
  cost.parallel_efficiency = 0.6;
  cost.preprocess_flops = static_cast<double>(n_channels_) * config_.window * 4.0;
  return cost;
}

}  // namespace varade::core
