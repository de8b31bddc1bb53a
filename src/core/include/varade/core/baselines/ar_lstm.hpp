// Autoregressive LSTM baseline (paper section 3.3).
//
// "A recurrent architecture featuring 5 LSTM recurrent layers with 256
// feature maps each, followed by 2 fully connected layers. The anomaly score
// is the euclidean norm of the difference between predicted and real value."
#pragma once

#include <cstdint>
#include <memory>

#include "varade/core/detector.hpp"
#include "varade/nn/layers.hpp"
#include "varade/nn/lstm.hpp"
#include "varade/nn/module.hpp"

namespace varade::core {

struct ArLstmConfig {
  Index window = 512;
  Index hidden = 256;   // paper: 256 feature maps
  int n_layers = 5;     // paper: 5 recurrent layers
  // Training.
  int epochs = 5;
  Index batch_size = 32;
  float learning_rate = 1e-5F;  // paper section 3.4
  Index train_stride = 1;
  float grad_clip = 5.0F;
  std::uint64_t seed = 2;
  bool verbose = false;
};

class ArLstmDetector : public AnomalyDetector {
 public:
  explicit ArLstmDetector(ArLstmConfig config = {});

  std::string name() const override { return "AR-LSTM"; }
  void fit(const data::MultivariateSeries& train) override;
  /// Forecast-error score ||observed - forecast||_2 per row: all B contexts
  /// run through the LSTM stack as one [B, C, T] stepped inference forward
  /// (no training caches), then one batched head evaluation. Every layer
  /// processes batch rows independently with a fixed accumulation order, so
  /// a row's score does not depend on B.
  void score_batch(const Tensor& contexts, const Tensor& observed, float* out) override;
  /// Fresh detector with the same architecture and a deep copy of the weights.
  std::unique_ptr<AnomalyDetector> clone_fitted() const override;
  Index context_window() const override { return config_.window; }
  edge::ModelCost cost() const override;
  bool fitted() const override { return model_ != nullptr; }

  /// One-step forecast for a context [C, T].
  Tensor forecast(const Tensor& context);

  const std::vector<float>& loss_history() const { return loss_history_; }
  nn::Sequential* model() { return model_.get(); }

 private:
  /// The untrained architecture for `n_channels` inputs (shared by fit and
  /// clone_fitted so replicas are structurally identical by construction).
  std::unique_ptr<nn::Sequential> build_model(Index n_channels, Rng& rng) const;

  ArLstmConfig config_;
  Index n_channels_ = 0;
  std::unique_ptr<nn::Sequential> model_;
  std::vector<float> loss_history_;
};

}  // namespace varade::core
