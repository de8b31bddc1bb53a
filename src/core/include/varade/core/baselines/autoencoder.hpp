// Convolutional autoencoder baseline (paper section 3.3).
//
// "A convolutional autoencoder featuring 6 ResNet blocks [7]. The anomaly
// score is the euclidean norm of the difference of reconstructed and real
// value."
//
// Architecture: strided Conv1d encoder to half resolution, three residual
// blocks, a second strided conv to quarter resolution; mirrored transposed-
// conv decoder with the remaining three residual blocks. Trained to
// reconstruct normal windows with MSE; at inference the window is shifted to
// end at the current observation and the reconstruction error of that last
// time step is the score.
#pragma once

#include <cstdint>
#include <memory>

#include "varade/core/detector.hpp"
#include "varade/nn/layers.hpp"
#include "varade/nn/module.hpp"

namespace varade::core {

struct AutoencoderConfig {
  Index window = 512;
  Index base_channels = 128;  // feature maps after the first conv
  // Training.
  int epochs = 10;
  Index batch_size = 32;
  float learning_rate = 1e-5F;  // paper section 3.4
  Index train_stride = 1;
  float grad_clip = 5.0F;
  std::uint64_t seed = 3;
  bool verbose = false;
};

class AutoencoderDetector : public AnomalyDetector {
 public:
  explicit AutoencoderDetector(AutoencoderConfig config = {});

  std::string name() const override { return "AE"; }
  void fit(const data::MultivariateSeries& train) override;
  /// Reconstruction-error score at the current step per row: each context is
  /// shifted to end at its observation, the B windows are gathered into one
  /// [B, C, T] matrix and reconstructed in a single inference forward (no
  /// training caches), and the score is the Euclidean norm of the last-step
  /// residual. Every layer processes batch rows independently with a fixed
  /// accumulation order, so a row's score does not depend on B.
  void score_batch(const Tensor& contexts, const Tensor& observed, float* out) override;
  /// Fresh detector with the same architecture and a deep copy of the weights.
  std::unique_ptr<AnomalyDetector> clone_fitted() const override;
  Index context_window() const override { return config_.window; }
  edge::ModelCost cost() const override;
  bool fitted() const override { return model_ != nullptr; }

  /// Reconstruction of a window [C, T].
  Tensor reconstruct(const Tensor& window);

  /// Mean squared reconstruction error over a whole window (used by tests).
  float window_reconstruction_error(const Tensor& window);

  const std::vector<float>& loss_history() const { return loss_history_; }

 private:
  /// The untrained architecture for `n_channels` inputs (shared by fit and
  /// clone_fitted so replicas are structurally identical by construction).
  std::unique_ptr<nn::Sequential> build_model(Index n_channels, Rng& rng) const;

  AutoencoderConfig config_;
  Index n_channels_ = 0;
  std::unique_ptr<nn::Sequential> model_;
  std::vector<float> loss_history_;
};

}  // namespace varade::core
