#include "varade/core/baselines/gbrf.hpp"

#include <cmath>

#include "varade/data/window.hpp"

namespace varade::core {

GbrfDetector::GbrfDetector(GbrfDetectorConfig config)
    : config_(config), forest_(config.forest) {
  check(config_.feature_steps >= 1 && config_.feature_steps <= config_.window,
        "feature_steps must be in [1, window]");
}

void GbrfDetector::gather_features(const float* context, Index c, Index t, float* out) const {
  // Sample `feature_steps` time points, most-recent first, evenly spaced.
  const Index hop = std::max<Index>(1, t / config_.feature_steps);
  Index k = 0;
  for (Index s = 0; s < config_.feature_steps; ++s) {
    const Index col = t - 1 - s * hop;
    for (Index ch = 0; ch < c; ++ch) out[k++] = context[ch * t + col];
  }
}

Tensor GbrfDetector::features_from_context(const Tensor& context) const {
  const Index c = context.dim(0);
  const Index t = context.dim(1);
  Tensor features({c * config_.feature_steps});
  gather_features(context.data(), c, t, features.data());
  return features;
}

void GbrfDetector::fit(const data::MultivariateSeries& train) {
  check(train.length() > config_.window + 1, "GBRF training series shorter than one window");
  n_channels_ = train.n_channels();

  // Build the (features, next-sample) regression problem. Training windows
  // hop by window/4 — boosted trees need far fewer, less-correlated samples
  // than SGD-trained networks.
  const Index stride = std::max<Index>(1, config_.window / 4);
  const data::WindowDataset dataset(train, {config_.window, stride});
  check(dataset.size() >= 8, "too few windows to fit GBRF");

  const Index n = dataset.size();
  const Index d = feature_dim();
  Tensor x({n, d});
  Tensor y({n, n_channels_});
  for (Index i = 0; i < n; ++i) {
    const Tensor f = features_from_context(dataset.context(i));
    for (Index j = 0; j < d; ++j) x[i * d + j] = f[j];
    const Tensor target = dataset.target(i);
    for (Index ch = 0; ch < n_channels_; ++ch) y[i * n_channels_ + ch] = target[ch];
  }
  forest_.fit(x, y);
}

Tensor GbrfDetector::forecast(const Tensor& context) const {
  check(fitted(), "GBRF forecast before fit");
  return forest_.predict_one(features_from_context(context));
}

std::unique_ptr<AnomalyDetector> GbrfDetector::clone_fitted() const {
  check(fitted(), "cannot clone an unfitted GBRF detector");
  auto clone = std::make_unique<GbrfDetector>(config_);
  clone->n_channels_ = n_channels_;
  clone->forest_ = forest_;
  return clone;
}

void GbrfDetector::score_batch(const Tensor& contexts, const Tensor& observed, float* out) {
  check(fitted(), "GBRF scoring before fit");
  check_batch_args(contexts, observed);
  check_batch_channels(contexts, n_channels_);
  const Index b = contexts.dim(0);
  const Index c = contexts.dim(1);
  const Index t = contexts.dim(2);
  if (b == 0) return;
  // Downsample every context into one [B, C * feature_steps] matrix, then
  // traverse each boosted ensemble tree-major over all rows at once.
  const Index d = feature_dim();
  Tensor features({b, d});
  Tensor pred({b, c});
  for (Index r = 0; r < b; ++r)
    gather_features(contexts.data() + r * c * t, c, t, features.data() + r * d);
  forest_.predict_rows(features.data(), b, d, pred.data());
  for (Index r = 0; r < b; ++r) {
    double acc = 0.0;
    for (Index ch = 0; ch < c; ++ch) {
      const double diff = static_cast<double>(pred[r * c + ch]) - observed[r * c + ch];
      acc += diff * diff;
    }
    out[r] = static_cast<float>(std::sqrt(acc));
  }
}

edge::ModelCost GbrfDetector::cost() const {
  check(fitted(), "GBRF cost before fit");
  edge::ModelCost cost;
  cost.name = name();
  // Tree traversal: one comparison per level per tree per output.
  const double comparisons = static_cast<double>(n_channels_) * config_.forest.n_trees *
                             config_.forest.tree.max_depth;
  cost.flops = comparisons * 2.0;
  // Rough node storage: (feature id, threshold, value, children) per node.
  const double nodes_per_tree = std::pow(2.0, config_.forest.tree.max_depth + 1);
  cost.param_bytes = static_cast<double>(n_channels_) * config_.forest.n_trees * nodes_per_tree *
                     20.0;
  cost.activation_bytes = static_cast<double>(feature_dim()) * sizeof(float);
  // sklearn predicts the whole ensemble in ~a couple dozen vectorised steps.
  cost.n_ops = 20;
  cost.runs_on_gpu = false;
  cost.parallel_efficiency = 0.5;
  cost.cpu_threads = 1;
  cost.preprocess_flops = static_cast<double>(feature_dim()) * 4.0;
  return cost;
}

}  // namespace varade::core
