#include "varade/core/baselines/iforest.hpp"

#include <cmath>

namespace varade::core {

IForestDetector::IForestDetector(IForestDetectorConfig config)
    : config_(config), forest_(config.forest) {}

void IForestDetector::fit(const data::MultivariateSeries& train) {
  check(train.length() >= 2, "Isolation Forest needs at least two training samples");
  n_channels_ = train.n_channels();
  forest_.fit(train.to_tensor());
}

void IForestDetector::score_batch(const Tensor& contexts, const Tensor& observed, float* out) {
  check(fitted(), "Isolation Forest scoring before fit");
  check_batch_args(contexts, observed);
  check_batch_channels(contexts, forest_.n_features());
  const Index c = observed.dim(1);
  for (Index r = 0; r < observed.dim(0); ++r) out[r] = forest_.score_one(observed.data() + r * c);
}

std::unique_ptr<AnomalyDetector> IForestDetector::clone_fitted() const {
  check(fitted(), "cannot clone an unfitted Isolation Forest detector");
  auto clone = std::make_unique<IForestDetector>(config_);
  clone->n_channels_ = n_channels_;
  clone->forest_ = forest_;
  return clone;
}

edge::ModelCost IForestDetector::cost() const {
  check(fitted(), "Isolation Forest cost before fit");
  edge::ModelCost cost;
  cost.name = name();
  const double max_depth = std::ceil(std::log2(static_cast<double>(config_.forest.subsample)));
  cost.flops = 2.0 * config_.forest.n_trees * max_depth;
  cost.param_bytes =
      static_cast<double>(config_.forest.n_trees) * config_.forest.subsample * 2.0 * 20.0;
  cost.activation_bytes = static_cast<double>(n_channels_) * sizeof(float);
  // sklearn traverses the ensemble tree-by-tree at the python level.
  cost.n_ops = config_.forest.n_trees;
  cost.runs_on_gpu = false;
  cost.parallel_efficiency = 0.5;
  cost.cpu_threads = 1;
  cost.preprocess_flops = static_cast<double>(n_channels_) * 4.0;
  return cost;
}

}  // namespace varade::core
