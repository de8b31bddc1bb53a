// Unified anomaly-detector interface.
//
// All six detectors of the paper (VARADE + five baselines, section 3) share
// this interface so the streaming runtime, benches, and tests treat them
// uniformly:
//   - fit() consumes a normalised recording of *normal* behaviour
//     (unsupervised training, section 2);
//   - score_batch() is the one way a detector scores: it receives B
//     independent (context, observation) pairs — the context window of the T
//     samples preceding each observation plus the observation itself — and
//     writes one anomaly score per row (higher = more anomalous). Every
//     frontend (score_series, threshold calibration, OnlineMonitor's 1-row
//     call, serve::ScoringEngine) scores through it. Each detector evaluates
//     rows independently with a fixed accumulation order, so a row's score
//     does not depend on the batch size or on the row's position in the
//     batch;
//   - clone_fitted() deep-copies a fitted detector so a serving layer can
//     give each scorer shard its own replica without knowing the model
//     type. Replicas score bit-identically to the original;
//   - the per-stream state contract (stream_state_floats, score_streams,
//     advance_streams) is how a serving layer scores unbounded streams: it
//     owns one state slot per stream and folds every sample into it, and
//     the detector defines what the slot holds. The default slot is the
//     [C, T] context ring, scored through score_batch, so every detector
//     serves unchanged; a detector whose model can update incrementally
//     (VARADE) overrides all three. Either way a stream's scores are
//     bit-identical to score_batch on the full context window.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "varade/data/timeseries.hpp"
#include "varade/edge/profiler.hpp"
#include "varade/tensor/tensor.hpp"

namespace varade::core {

/// A chunk of serving streams handed to the per-stream-state calls. Row r is
/// one stream: its state slot states[r] (stream_state_floats() floats, owned
/// by the caller), the number of samples seen[r] already folded into it, and
/// its current normalised sample at samples + r * channels.
struct StreamBatch {
  float* const* states = nullptr;
  const Index* seen = nullptr;
  const float* samples = nullptr;
  Index rows = 0;
  Index channels = 0;
};

/// Scratch for the per-stream-state calls, owned by the caller and reused
/// across calls so a serving loop allocates nothing per call. Keeping it out
/// of the detector lets several callers share one fitted detector.
struct StreamScratch {
  Tensor contexts;           // default path: the gathered [rows, C, T] contexts
  Tensor observed;           // default path: the [rows, C] observations
  std::vector<float> floats; // detector-specific working memory
};

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

  /// Scores B independent pairs: `contexts` [B, C, T], `observed` [B, C],
  /// writing one score per row into `out` [B]. Row r's score is the score of
  /// observation r given the T samples preceding it, bit-identical whatever B
  /// is and wherever the row sits in the batch.
  virtual void score_batch(const Tensor& contexts, const Tensor& observed, float* out) = 0;

  /// Deep copy of a fitted detector (weights, reference sets, thresholds —
  /// everything scoring depends on) for per-shard serving replicas.
  virtual std::unique_ptr<AnomalyDetector> clone_fitted() const = 0;

  /// Context length T the detector expects.
  virtual Index context_window() const = 0;

  // --- Per-stream state: the serving contract ------------------------------
  // A serving layer keeps one zero-initialised slot of stream_state_floats()
  // floats per stream. For every sample of a stream, in order, it first
  // scores the sample with score_streams() if the stream has already folded
  // at least context_window() samples, and then folds the sample into the
  // slot with advance_streams(). The score of a stream's sample t equals
  // score_batch() on the T samples before it, bit for bit. The detector
  // keeps no per-stream data: the caller owns the slots and the scratch,
  // so the calls share a fitted detector exactly as score_batch() does
  // (VARADE's overrides only read it, so concurrent callers are safe).
  //
  // The default slot is a [C, T] context ring (channels-major; sample k of
  // the stream lives at time index k % T): advance_streams() writes the
  // sample into it, and score_streams() unrolls each ring oldest-first into
  // a [rows, C, T] batch and makes one score_batch() call.

  /// Floats of one stream's state slot for samples of `channels` channels.
  virtual Index stream_state_floats(Index channels) const;

  /// Scores the current sample of every row of `batch`, whose states have
  /// each folded at least context_window() samples, writing one score per
  /// row into `out` [rows].
  virtual void score_streams(const StreamBatch& batch, StreamScratch& scratch, float* out);

  /// Folds each row's current sample into its state (row r's state has
  /// folded seen[r] samples before the call).
  virtual void advance_streams(const StreamBatch& batch, StreamScratch& scratch);

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
  /// shared by every detector's score_batch.
  void check_batch_args(const Tensor& contexts, const Tensor& observed) const;

  /// Validates the channel count of a score_batch call against the fitted
  /// detector ("expects N channels, got M"); shared by every detector's
  /// score_batch.
  void check_batch_channels(const Tensor& contexts, Index expected) const;
};

}  // namespace varade::core
