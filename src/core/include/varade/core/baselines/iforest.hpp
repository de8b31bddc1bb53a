// Isolation Forest baseline (paper section 3.3).
//
// "An ensemble of 100 individual decision trees ... anomaly score based on
// the average path length. As recommended by [15], we use a contamination
// value of 0.1." Scores the current sample; no temporal context is used.
#pragma once

#include "varade/core/detector.hpp"
#include "varade/trees/isolation_forest.hpp"

namespace varade::core {

struct IForestDetectorConfig {
  trees::IsolationForestConfig forest;  // defaults match the paper
};

class IForestDetector : public AnomalyDetector {
 public:
  explicit IForestDetector(IForestDetectorConfig config = {});

  std::string name() const override { return "Isolation Forest"; }
  void fit(const data::MultivariateSeries& train) override;
  /// Isolation score of each observation row (the context is not used):
  /// traverses the ensemble once per row.
  void score_batch(const Tensor& contexts, const Tensor& observed, float* out) override;
  /// Deep copy of the fitted ensemble.
  std::unique_ptr<AnomalyDetector> clone_fitted() const override;
  Index context_window() const override { return 1; }
  edge::ModelCost cost() const override;
  bool fitted() const override { return forest_.fitted(); }

  const trees::IsolationForest& forest() const { return forest_; }

 private:
  IForestDetectorConfig config_;
  Index n_channels_ = 0;
  trees::IsolationForest forest_;
};

}  // namespace varade::core
