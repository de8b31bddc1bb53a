// k-Nearest-Neighbour baseline (paper section 3.3).
//
// "We employ maximum distance with k=5, as it has the best compromise between
// accuracy and execution time." Scores the current sample against the normal
// reference set; no temporal context is used.
#pragma once

#include "varade/core/detector.hpp"
#include "varade/knn/knn.hpp"

namespace varade::core {

struct KnnDetectorConfig {
  knn::KnnConfig knn;  // defaults: k = 5, max distance
  /// Reference subsample kept on device; 0 keeps the entire training set
  /// (what the paper's sklearn implementation does — and why kNN is slow).
  Index max_reference_points = 0;
};

class KnnDetector : public AnomalyDetector {
 public:
  explicit KnnDetector(KnnDetectorConfig config = {});

  std::string name() const override { return "kNN"; }
  void fit(const data::MultivariateSeries& train) override;
  /// Nearest-neighbour distance score of each observation row (the context
  /// is not used), queried straight from the row through the kd-tree or
  /// brute-force backend.
  void score_batch(const Tensor& contexts, const Tensor& observed, float* out) override;
  /// Deep copy of the reference set and search structure.
  std::unique_ptr<AnomalyDetector> clone_fitted() const override;
  Index context_window() const override { return 1; }
  edge::ModelCost cost() const override;
  bool fitted() const override { return scorer_.fitted(); }

  Index reference_size() const { return scorer_.reference_size(); }

 private:
  KnnDetectorConfig config_;
  Index n_channels_ = 0;
  knn::KnnAnomalyScorer scorer_;
};

}  // namespace varade::core
