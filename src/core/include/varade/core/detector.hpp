// Unified anomaly-detector interface.
//
// All six detectors of the paper (VARADE + five baselines, section 3) share
// this interface so the streaming runtime, benches, and tests treat them
// uniformly:
//   - fit() consumes a normalised recording of *normal* behaviour
//     (unsupervised training, section 2);
//   - score_step() receives the context window of the T samples preceding the
//     current one plus the current observation, and returns an anomaly score
//     for that observation (higher = more anomalous);
//   - score_batch() scores B independent (context, observation) pairs in one
//     call — the contract every batched frontend (score_series, threshold
//     calibration, serve::ScoringEngine) is built on. The default
//     implementation loops score_step, so results are bit-identical to the
//     sequential path by construction; detectors with a cheaper batched
//     evaluation (VARADE's [N, C, T] forward, kNN's query loop, Isolation
//     Forest's tree traversal) override it without changing the results;
//   - clone_fitted() deep-copies a fitted detector so a serving layer can
//     give each scorer shard its own replica without knowing the model
//     type. Detectors that cannot be replicated return null.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "varade/data/timeseries.hpp"
#include "varade/edge/profiler.hpp"
#include "varade/tensor/tensor.hpp"

namespace varade::core {

/// Result of scoring a whole series.
struct SeriesScores {
  std::vector<float> scores;
  std::vector<int> labels;
  std::vector<Index> times;       // sample index each score refers to
  double mean_latency_ms = 0.0;   // host wall-clock per scored sample
};

class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;

  AnomalyDetector() = default;
  AnomalyDetector(const AnomalyDetector&) = delete;
  AnomalyDetector& operator=(const AnomalyDetector&) = delete;

  virtual std::string name() const = 0;

  /// Trains on a normalised series of normal behaviour.
  virtual void fit(const data::MultivariateSeries& train) = 0;

  /// Scores the observation `observed` [C] given the `context` [C, T] of the
  /// T samples immediately preceding it.
  virtual float score_step(const Tensor& context, const Tensor& observed) = 0;

  /// Scores B independent pairs: `contexts` [B, C, T], `observed` [B, C],
  /// writing one score per row into `out` [B]. The base implementation loops
  /// score_step row by row; overrides must produce bit-identical scores.
  virtual void score_batch(const Tensor& contexts, const Tensor& observed, float* out);

  /// Deep copy of a fitted detector (weights, reference sets, thresholds —
  /// everything scoring depends on) for per-shard serving replicas. Returns
  /// null when the detector cannot be replicated; callers must fall back to
  /// serialised scoring through the original instance.
  virtual std::unique_ptr<AnomalyDetector> clone_fitted() const { return nullptr; }

  /// Context length T the detector expects.
  virtual Index context_window() const = 0;

  /// Static workload description for the edge profiler (one inference).
  virtual edge::ModelCost cost() const = 0;

  virtual bool fitted() const = 0;

  /// Walks a test series, scoring every `stride`-th sample after the first
  /// context_window() samples through score_batch with up to `batch` rows per
  /// call; measures host wall-clock per scored sample.
  SeriesScores score_series(const data::MultivariateSeries& test, Index stride = 1,
                            Index batch = 32);

 protected:
  /// Validates score_batch arguments ([B, C, T] / [B, C], T = context window);
  /// shared by the base fallback and every native override.
  void check_batch_args(const Tensor& contexts, const Tensor& observed) const;

  /// Validates the channel count of a score_batch call against the fitted
  /// detector ("expects N channels, got M"); shared by every native override
  /// that gathers per-channel data.
  void check_batch_channels(const Tensor& contexts, Index expected) const;
};

}  // namespace varade::core
