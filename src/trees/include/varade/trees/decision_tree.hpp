// CART regression tree with the mean-squared-error criterion and recursive
// binary splitting — the weak learner of the GBRF baseline (paper section 3.3,
// following Huang et al. [9]).
#pragma once

#include <cstdint>
#include <vector>

#include "varade/tensor/tensor.hpp"

namespace varade::trees {

/// Hyperparameters for a single regression tree.
struct TreeConfig {
  int max_depth = 6;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  /// Number of features examined per split; 0 means all features.
  int max_features = 0;
  std::uint64_t seed = 0;
};

/// Binary regression tree, stored as a flat node array and evaluated by one
/// branch-free walk of exactly depth() steps per row.
class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {});

  /// Fits on features X [n, d] and targets y [n].
  void fit(const Tensor& x, const Tensor& y);

  /// Fits on a subset of rows (used by boosting/bagging); `rows` indexes X/y.
  void fit_rows(const Tensor& x, const Tensor& y, const std::vector<Index>& rows);

  /// Predicts a single sample [d].
  float predict_one(const float* sample) const;
  float predict_one(const Tensor& sample) const;

  /// Predicts all rows of X [n, d] into a [n] tensor.
  Tensor predict(const Tensor& x) const;

  /// acc[i] += scale * prediction of row i, for `n` rows of `d` features at
  /// `x` — the boosting-stage accumulation, one call per tree per batch. Each
  /// row's contribution is the same scale * predict_one product, so batched
  /// ensemble predictions stay bit-identical to the per-row path.
  void accumulate_rows(const float* x, Index n, Index d, double scale, double* acc) const;

  bool fitted() const { return !nodes_.empty(); }
  /// Edges from the root to the deepest leaf (a lone leaf has depth 0).
  int depth() const { return depth_; }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  /// A split sends x to child[0] when x[feature] <= threshold and to child[1]
  /// otherwise (NaN included). A leaf points both children at itself and
  /// uses feature 0, so a walk that reaches it early stays there.
  struct Node {
    int feature = 0;
    float threshold = 0.0F;
    int child[2] = {0, 0};
    float value = 0.0F;  // leaf prediction
  };

  int build(const Tensor& x, const Tensor& y, std::vector<Index>& rows, Index begin, Index end,
            int depth, Rng& rng);
  static int step(const Node* nodes, int id, const float* sample);
  int leaf_of(const float* sample) const;

  TreeConfig config_;
  Index n_features_ = 0;
  int depth_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace varade::trees
