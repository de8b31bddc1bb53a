// Gradient Boosted Regression Forest baseline (paper section 3.3).
//
// Follows Huang et al. [9] with the paper's modifications: 30 trees and no
// dimensionality-reduction step. The forest forecasts the next sample of all
// channels from a downsampled context window; the anomaly score is the
// euclidean norm of the forecast residual (as for AR-LSTM).
#pragma once

#include "varade/core/detector.hpp"
#include "varade/trees/gbrf.hpp"

namespace varade::core {

struct GbrfDetectorConfig {
  Index window = 512;
  /// The context is downsampled to `feature_steps` samples spaced
  /// `window / feature_steps` apart (trees cannot ingest 512x86 raw values).
  Index feature_steps = 8;
  trees::GbrfConfig forest;  // defaults already match the paper (30 trees)
};

class GbrfDetector : public AnomalyDetector {
 public:
  explicit GbrfDetector(GbrfDetectorConfig config = {});

  std::string name() const override { return "GBRF"; }
  void fit(const data::MultivariateSeries& train) override;
  /// Forecast-error score ||observed - forecast||_2 per row: the downsampled
  /// feature matrix [B, C * feature_steps] is built once, then every boosted
  /// ensemble is traversed tree-major over all rows. Per-row accumulation
  /// order matches predict_one, so a row's score does not depend on B.
  void score_batch(const Tensor& contexts, const Tensor& observed, float* out) override;
  /// Deep copy of the fitted boosted ensembles.
  std::unique_ptr<AnomalyDetector> clone_fitted() const override;
  Index context_window() const override { return config_.window; }
  edge::ModelCost cost() const override;
  bool fitted() const override { return forest_.fitted(); }

  /// One-step forecast for a context [C, T].
  Tensor forecast(const Tensor& context) const;

  Index feature_dim() const { return n_channels_ * config_.feature_steps; }

 private:
  Tensor features_from_context(const Tensor& context) const;

  /// Downsamples one context [C, T] (row-major at `context`) into
  /// `feature_dim()` values at `out`; shared by the single-row and batched
  /// feature gathers.
  void gather_features(const float* context, Index c, Index t, float* out) const;

  GbrfDetectorConfig config_;
  Index n_channels_ = 0;
  trees::MultiOutputGbrf forest_;
};

}  // namespace varade::core
