// VARADE: the paper's variational autoregressive anomaly detector
// (sections 3.1-3.2).
//
// Architecture (Figure 1): a cascade of 1-D convolutions with kernel size and
// stride 2 — halving the time dimension at every layer — with ReLU
// activations, feature maps doubling every two layers from `base_channels`
// (paper: 128, reaching 1024), and a final linear projection producing the
// mean and log-variance of a Gaussian over the next time step.
//
// Training minimises the negative ELBO, L = L_recon + lambda * D_KL (Eq. 7).
// At inference the predicted mean is discarded and the mean predicted
// variance across channels is the anomaly score: the KL prior pulls the
// variance toward 1 wherever the data do not pin it down, so unfamiliar
// (anomalous) contexts yield high variance (section 3.2).
#pragma once

#include <cstdint>
#include <memory>

#include "varade/core/detector.hpp"
#include "varade/nn/layers.hpp"
#include "varade/nn/loss.hpp"
#include "varade/nn/module.hpp"

namespace varade::core {

struct VaradeConfig {
  Index window = 512;        // paper: T = 512 (must be a power of two >= 8)
  Index base_channels = 128; // paper: 128, doubled every 2 layers
  /// Paper design choice: double the feature maps every second layer
  /// ("helping the network to learn more complex and abstract features").
  /// Disable for the width-ablation bench (constant-width trunk).
  bool channel_doubling = true;
  float lambda = 0.01F;      // KL weight in Eq. 7
  // Training (core::train_minibatches: Adam on shuffled batches of 32).
  int epochs = 10;
  float learning_rate = 1e-5F;  // paper section 3.4 (Adam, fixed 1e-5)
  Index train_stride = 1;       // hop between training windows
  std::uint64_t seed = 1;
};

/// Number of conv layers for a window size: halve until the time dimension
/// reaches 2 (paper: T=512 -> 8 layers).
Index varade_layer_count(Index window);

/// The network: conv trunk + two linear heads.
class VaradeModel {
 public:
  VaradeModel(Index in_channels, const VaradeConfig& config, Rng& rng);

  struct Output {
    Tensor mu;      // [N, C]
    Tensor logvar;  // [N, C]
  };

  /// x: [N, C, T].
  Output forward(const Tensor& x);

  /// Inference-only forward: same arithmetic as forward() but no activation
  /// caches, so scoring never pays the training path's per-layer copies.
  Output forward_inference(const Tensor& x);

  /// The scoring path: the trunk and the log-variance head only, [N, C]. The
  /// predicted mean is discarded at inference (section 3.2), so scoring
  /// skips the mu head; the result equals forward_inference(x).logvar bit
  /// for bit.
  Tensor logvar_inference(const Tensor& x);

  /// Backward from loss gradients; accumulates parameter gradients. The
  /// input gradient is never formed: the trunk runs backward_params().
  void backward(const Tensor& grad_mu, const Tensor& grad_logvar);

  std::vector<nn::Parameter*> parameters();
  void zero_grad();

  Index in_channels() const { return in_channels_; }
  Index window() const { return window_; }
  long num_params();
  long flops() const;
  Index n_layers() const { return n_conv_layers_; }

  nn::Sequential& trunk() { return trunk_; }
  nn::Linear& mu_head() { return *mu_head_; }
  nn::Linear& logvar_head() { return *logvar_head_; }
  const nn::Linear& logvar_head() const { return *logvar_head_; }
  /// Conv layer `layer` of the trunk, 0 <= layer < n_layers().
  const nn::Conv1d& conv(Index layer) const { return *convs_[static_cast<std::size_t>(layer)]; }

 private:
  /// Shape-checked trunk inference shared by both inference entry points.
  Tensor trunk_inference(const Tensor& x);

  Index in_channels_;
  Index window_;
  Index n_conv_layers_;
  nn::Sequential trunk_;  // convs + relus + flatten
  std::vector<nn::Conv1d*> convs_;  // the trunk's convs, owned by trunk_
  std::unique_ptr<nn::Linear> mu_head_;
  std::unique_ptr<nn::Linear> logvar_head_;
};

/// The detector wrapper implementing the AnomalyDetector interface.
class VaradeDetector : public AnomalyDetector {
 public:
  explicit VaradeDetector(VaradeConfig config = {});

  std::string name() const override { return "VARADE"; }
  void fit(const data::MultivariateSeries& train) override;
  /// The paper's score: one [B, C, T] log-variance forward through the
  /// model, then the mean predicted variance over channels per row. The
  /// observations are not used — anomalies surface as predicted-variance
  /// spikes one step ahead. Every layer processes batch rows independently
  /// with a fixed accumulation order, so a row's score does not depend on B.
  void score_batch(const Tensor& contexts, const Tensor& observed, float* out) override;
  /// Fresh detector with the same architecture and a deep copy of the
  /// weights; serving layers shard batches across such replicas.
  std::unique_ptr<AnomalyDetector> clone_fitted() const override;
  Index context_window() const override { return config_.window; }

  // Streamed inference. Every trunk conv has kernel 2 and stride 2, so conv
  // l's output column ending at sample tau depends only on samples
  // (tau - 2^(l+1), tau]: it combines conv l-1's columns ending at
  // tau - 2^l and tau (conv 0: samples tau - 1 and tau). A stream's state
  // therefore keeps, per level k = 0..L (level 0 = the normalised samples,
  // level k = conv k-1's ReLU output), a ring of its last 2^k columns —
  // conv k's tap distance — and the top level one more, because the head
  // reads the top columns ending at tau - 2^L and tau. advance_streams
  // computes one new column per conv with the packed conv1d kernel at
  // l_in = 2, so every element keeps the full-window accumulation order;
  // score_streams runs the logvar head on the two top columns. Scores equal
  // score_batch on the full window bit for bit (test_score_batch_fuzz). At
  // the served architecture (86 channels, T = 32, base 16) that is 11.8k
  // MACs per sample instead of 61.8k, and 982 state floats per stream
  // instead of a 2,752-float context ring.

  /// State floats per stream: sum over levels of channels x ring slots.
  Index stream_state_floats(Index channels) const override;
  /// The logvar head on each row's two top-level columns, then the mean
  /// predicted variance (the observation is not used, as in score_batch).
  void score_streams(const StreamBatch& batch, StreamScratch& scratch, float* out) override;
  /// One new column per conv layer per row, stored in the layer's ring.
  void advance_streams(const StreamBatch& batch, StreamScratch& scratch) override;
  edge::ModelCost cost() const override;
  bool fitted() const override { return model_ != nullptr; }

  /// The scoring rule itself: mean exp(logvar) over `n` log-variance values
  /// — the mean predicted variance across channels (section 3.2), through
  /// nn::mean_exp_rows, which score_batch and score_streams call on all
  /// their rows at once, so every path applies one rule.
  static float score_from_logvar(const float* logvar, Index n);

  /// Forecast-error score ||observed - mu||_2 on the same model; used by the
  /// score-function ablation (bench_ablation_score).
  float forecast_error_score(const Tensor& context, const Tensor& observed);

  /// Training loss history (one entry per epoch).
  const std::vector<float>& loss_history() const { return loss_history_; }

  /// Persists the fitted model (architecture description + weights) so a
  /// detector trained offline can be deployed to the edge device.
  void save(const std::string& path) const;

  /// Restores a detector saved with save(); replaces config and weights.
  /// All or nothing: if the file is unreadable, truncated or does not match
  /// the architecture, load throws and the detector is left as it was.
  void load(const std::string& path);

  /// The fitted network, for inspection and timing. The streamed path packs
  /// the weights when the model is fitted, loaded or cloned, so writes to
  /// its parameters afterwards are seen by score_batch but not by
  /// score_streams.
  VaradeModel* model() { return model_.get(); }
  const VaradeConfig& config() const { return config_; }

 private:
  /// One level of the streamed state: a ring of `slots` columns of
  /// `channels` floats (column-major) at float `offset` of a stream's slot;
  /// the column ending at sample tau lives in ring slot tau % slots.
  struct StreamLevel {
    Index offset = 0;
    Index channels = 0;
    Index slots = 0;
  };

  /// Makes `model` the fitted model and packs its conv and logvar-head
  /// weights for the streamed path, so the two always change together.
  void install(std::unique_ptr<VaradeModel> model);

  VaradeConfig config_;
  std::unique_ptr<VaradeModel> model_;
  std::vector<float> loss_history_;
  // Streamed inference, rebuilt by install(): read-only while scoring.
  std::vector<StreamLevel> stream_levels_;          // L + 1 levels
  std::vector<nn::PackedWeights> packed_convs_;     // one per conv layer
  nn::PackedWeights packed_logvar_;
  Index stream_floats_ = 0;    // state floats per stream
  Index stream_max_channels_ = 0;
};

}  // namespace varade::core
