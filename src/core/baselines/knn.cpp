#include "varade/core/baselines/knn.hpp"

namespace varade::core {

KnnDetector::KnnDetector(KnnDetectorConfig config)
    : config_([&config] {
        config.knn.max_reference_points = config.max_reference_points;
        return config;
      }()),
      scorer_(config_.knn) {}

void KnnDetector::fit(const data::MultivariateSeries& train) {
  check(train.length() > 0, "kNN training series is empty");
  n_channels_ = train.n_channels();
  scorer_.fit(train.to_tensor());
}

void KnnDetector::score_batch(const Tensor& contexts, const Tensor& observed, float* out) {
  check(fitted(), "kNN scoring before fit");
  check_batch_args(contexts, observed);
  check_batch_channels(contexts, scorer_.n_features());
  const Index c = observed.dim(1);
  for (Index r = 0; r < observed.dim(0); ++r) out[r] = scorer_.score_one(observed.data() + r * c);
}

std::unique_ptr<AnomalyDetector> KnnDetector::clone_fitted() const {
  check(fitted(), "cannot clone an unfitted kNN detector");
  auto clone = std::make_unique<KnnDetector>(config_);
  clone->n_channels_ = n_channels_;
  clone->scorer_ = scorer_;
  return clone;
}

edge::ModelCost KnnDetector::cost() const {
  check(fitted(), "kNN cost before fit");
  edge::ModelCost cost;
  cost.name = name();
  const double n_ref = static_cast<double>(scorer_.reference_size());
  const double d = static_cast<double>(n_channels_);
  // Brute-force distances: ~3 passes over the reference matrix (numpy-style
  // (x-y)^2 expansion) as sklearn does on a dense float64 matrix.
  cost.flops = 3.0 * 2.0 * n_ref * d;
  cost.ref_bytes = n_ref * d * 8.0;  // float64 in the original stack
  cost.param_bytes = 0.0;
  cost.activation_bytes = n_ref * 8.0;  // distance vector
  cost.n_ops = 1;
  cost.runs_on_gpu = false;
  // The distance kernel is memory-bound and scales poorly across cores
  // (paper: "kNN cannot fully benefit from GPU parallelism ... leading to
  // high power draw"): effective throughput ~11% of peak.
  cost.parallel_efficiency = 0.11;
  cost.cpu_threads = 64;  // uses every core available
  cost.preprocess_flops = d * 4.0;
  return cost;
}

}  // namespace varade::core
