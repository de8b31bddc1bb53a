// Multi-stream batched scoring engine: the serving layer of the reproduction.
//
// Turns the per-sample OnlineMonitor loop into a throughput-oriented
// frontend: N independent streams — each with its own detector-defined
// state, warm-up count, and debounce/hold-off alarm state machine — are
// multiplexed onto one fitted AnomalyDetector. step() drains buffered
// samples round by round (one sample per stream per round): it normalises
// the round's samples, scores the warm streams in max_batch chunks through
// the detector's score_streams contract, folds every sample into its
// stream's state with advance_streams, and applies the per-stream alarm
// logic. One engine runs on one thread; AsyncScoringRuntime scales across
// cores by giving each shard its own engine over its own clone_fitted()
// replica.
//
// Stream ids are dense engine-local ids 0..n_streams()-1, and StreamScore
// reports exactly those ids. The engine keeps no other id map: a sharded
// frontend that serves a slice of a larger stream space remaps the ids it
// receives (AsyncScoringRuntime does so through its ShardPartition).
//
// Per-stream state is structure-of-arrays, sized for fleets: the detector's
// state slots live in one contiguous [n_streams, stream_state_floats()]
// float slab (the [C, T] context ring by default; VARADE keeps one ring of
// activation columns per conv layer instead), raw pushed samples are staged
// in one append-only arena, and all bookkeeping (warm-up counts, scores) is
// flat parallel arrays. Pushing a sample and scoring a round allocate
// nothing per stream, and normalisation runs vectorised over stream-major
// blocks — the layout that keeps 100k–1M streams memory- and cache-viable on
// one host. The engine owns the slab and the detector scratch, so two
// engines may share one fitted detector.
//
// One round slab: each round stages its active streams warm first and cold
// after, each group in ascending stream id, so score_streams reads the warm
// prefix of the round slab and advance_streams reads all of it — both in
// max_batch slices straight out of the slab.
//
// The engine is generic over core::AnomalyDetector: any of the paper's six
// detectors plugs in unchanged.
//
// Determinism: a stream's score_streams score equals score_batch on its
// full context window bit for bit whatever chunk it rides in (the detector
// contract; OnlineMonitor scores 1-row score_batch calls) and the slab
// normalisation is transform_rows, the one expression transform_sample also
// runs — so scores and alarm events are bit-for-bit identical to running one
// OnlineMonitor per stream sequentially, at any batch size.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "varade/core/detector.hpp"
#include "varade/core/monitor.hpp"
#include "varade/obs/telemetry.hpp"

namespace varade::serve {

/// The five phases of one step() round. Indexes into EngineTelemetry::phases
/// and the phase labels of every exposition. A round runs them in the order
/// stage, normalize, score, gather, alarm:
///   - stage: copy each active stream's next raw sample out of the arena;
///   - normalize: min-max normalise the round's samples;
///   - score: the detector's score_streams calls over the warm streams, in
///     chunks of max_batch (for the default context state this includes
///     unrolling each ring into a [rows, C, T] batch);
///   - gather: the detector's advance_streams calls, folding every active
///     stream's sample into its state (a ring write by default; one new
///     column per conv layer for VARADE);
///   - alarm: the per-stream alarm state machines and bookkeeping.
inline constexpr int kStepPhases = 5;
inline constexpr const char* kStepPhaseName[kStepPhases] = {
    "stage", "normalize", "gather", "score", "alarm"};

/// Telemetry snapshot of one engine (merge shard snapshots for fleet-wide
/// views). All durations are nanoseconds.
struct EngineTelemetry {
  /// Per-round duration of each step() phase (score only recorded on rounds
  /// with warm streams).
  obs::HistogramSnapshot phases[kStepPhases];
  /// Whole step() call duration (calls that had buffered work only).
  obs::HistogramSnapshot step;
  /// Sampled push->score end-to-end latency: enqueue timestamps carried
  /// through the pending arena to the round that consumed them.
  obs::HistogramSnapshot push_to_score;

  void merge(const EngineTelemetry& other);
};

namespace detail {
/// The one wording for stream-id range errors, shared by every serve
/// frontend (ScoringEngine, AsyncScoringRuntime) so callers can match on it.
std::string stream_range_message(Index id, Index n_streams);
/// The one wording for per-sample channel-count errors, shared by the
/// raw-pointer push paths of ScoringEngine and AsyncScoringRuntime.
std::string channel_mismatch_message(Index expected, Index got);
}  // namespace detail

struct ScoringEngineConfig {
  /// Maximum streams per score_streams (and advance_streams) call.
  Index max_batch = 32;
  /// Alarm behaviour shared by every stream.
  core::MonitorConfig monitor;
};

/// Score of one (stream, sample) pair produced by step(). `stream` is the
/// engine's own dense id (AsyncScoringRuntime rewrites it to the global id
/// before a score leaves the runtime).
///
/// `alarm` is the transition the stream's alarm state machine made on this
/// sample (None while warming up): the engine's own decision, so consumers
/// (the daemon's ALARM frames) forward it instead of recomputing it.
struct StreamScore {
  Index stream = 0;
  Index sample = 0;     // 0-based position within the stream
  float score = -1.0F;  // negative while the stream's ring is warming up
  core::AlarmEdge alarm = core::AlarmEdge::None;
};
// The edge rides in the struct's tail padding: result queues stay 24 B/score.
static_assert(sizeof(StreamScore) == 24, "StreamScore grew past its tail padding");

class ScoringEngine {
 public:
  /// The detector must already be fitted and the normalizer must carry the
  /// training statistics; both are borrowed and must outlive the engine.
  /// Works with any AnomalyDetector (VARADE or any baseline).
  ScoringEngine(core::AnomalyDetector& detector, const data::MinMaxNormalizer& normalizer,
                ScoringEngineConfig config = {});

  /// Registers a new independent stream; returns its id (dense, from 0),
  /// the id StreamScore reports it under.
  Index add_stream();
  Index add_streams(Index n);
  Index n_streams() const { return static_cast<Index>(samples_seen_.size()); }
  /// Channels per sample, as fixed by the normalizer (runtime wiring: the
  /// AsyncScoringRuntime sizes its ingestion rings off this).
  Index n_channels() const;

  /// Calibrates the shared alarm threshold on a normalised training series
  /// (same quantile rule as OnlineMonitor::calibrate).
  void calibrate(const data::MultivariateSeries& train);
  void set_threshold(float threshold);
  float threshold() const { return threshold_; }
  bool calibrated() const { return calibrated_; }

  /// Buffers one raw (unnormalised) sample for a stream; scored at the next
  /// step(). `count` is the number of floats at `raw_sample` and must equal
  /// n_channels() — the explicit length contract of the raw-pointer path.
  /// `enqueue_ns` is an obs::tick() timestamp taken when the sample entered
  /// the serving system (0 = unsampled): the next step() that scores the
  /// sample records now - enqueue_ns into the push_to_score histogram. With
  /// telemetry compiled off the timestamp is dropped at the door.
  void push(Index stream, const float* raw_sample, Index count, std::int64_t enqueue_ns = 0);

  /// Drains every buffered sample; returns scores ordered chronologically
  /// per stream (round by round, stream id ascending within a round).
  std::vector<StreamScore> step();

  bool in_alarm(Index stream) const;
  /// Reference stays valid across add_stream()/push()/step() (alarm trackers
  /// live in a deque); it is appended to by subsequent step() calls.
  const std::vector<core::AnomalyEvent>& events(Index stream) const;
  Index samples_seen(Index stream) const;

  /// score_streams calls issued so far, one per max_batch chunk of warm
  /// streams per round (throughput accounting).
  long forward_calls() const { return forward_calls_; }
  const ScoringEngineConfig& config() const { return config_; }

  /// Snapshot of this engine's phase/step/push-to-score histograms. Safe to
  /// call from another thread while step() runs (relaxed-load snapshot; see
  /// obs::LogHistogram for the exact staleness contract). All-zero when
  /// telemetry is compiled off.
  EngineTelemetry telemetry() const;

 private:
  /// Throws the standard range error unless `id` names a registered stream.
  /// Branch-before-message: push() runs through here once per sample and
  /// must not allocate on success.
  void require_stream(Index id) const;
  /// Scores the warm prefix [0, n_warm) of the round slab in max_batch
  /// slices into round_scores_.
  void score_warm(Index n_warm);
  /// Folds every staged sample into its stream's state slot, in max_batch
  /// slices of the whole round slab.
  void advance_round(Index n_active);

  core::AnomalyDetector* detector_;
  const data::MinMaxNormalizer* normalizer_;
  ScoringEngineConfig config_;

  float threshold_ = 0.0F;
  bool calibrated_ = false;
  long forward_calls_ = 0;

  Index window_ = 0;        // detector context window, fixed at construction
  Index channels_ = 0;      // normalizer channel count, fixed at construction
  Index state_floats_ = 0;  // detector state slot per stream, fixed at construction

  // --- Structure-of-arrays per-stream state (indexed by local stream id) ---
  // Detector state: one stream_state_floats() slot per stream in a single
  // contiguous, zero-initialised slab. A stream is warm (scored) once
  // samples_seen_ reaches window_.
  std::vector<float> state_slab_;  // [n_streams, state_floats_]
  std::vector<Index> samples_seen_;
  std::vector<float> score_;       // this round's score per stream
  std::vector<core::AlarmEdge> edge_;  // this round's alarm transition per stream
  /// Deque, not vector: references handed out by events() must survive
  /// add_stream().
  std::deque<core::AlarmTracker> alarms_;

  // Pending raw samples: one append-only float arena shared by all streams
  // (no per-sample allocation), plus per-stream offset queues into it.
  // pending_head_[s] is the next unconsumed entry of pending_[s]; both reset
  // when the stream's last buffered sample is consumed, and the arena at the
  // end of every step().
  std::vector<float> pending_arena_;        // count * channels_ floats
  std::vector<std::vector<Index>> pending_;  // per-stream sample offsets
  std::vector<Index> pending_head_;
  // Enqueue timestamps parallel to the arena, one per staged sample (0 =
  // unsampled). Never touched when telemetry is compiled off.
  std::vector<std::int64_t> pending_ts_;

  // Telemetry: recorded by step()/push consumers, snapshotted by
  // telemetry(). Cache-line aligned instances, relaxed hot path.
  obs::LogHistogram phase_hist_[kStepPhases];
  obs::LogHistogram step_hist_;
  obs::LogHistogram push_to_score_hist_;

  // The round slab, reused across step() rounds (capacity retained): one
  // entry per active stream in staging order — warm streams first, cold
  // after, each group in ascending stream id.
  std::vector<Index> round_streams_;       // stream id of each slab row
  std::vector<float> round_raw_;           // [n_active, C] raw samples
  std::vector<float> round_norm_;          // [n_active, C] normalised samples
  std::vector<float*> round_states_;       // each row's state slot
  std::vector<Index> round_seen_;          // each row's samples folded
  std::vector<float> round_scores_;        // scores of the warm prefix
  std::vector<std::int64_t> round_ts_;     // each row's enqueue ts (telemetry only)
  // Streams with buffered work, ascending: this round's and the next's.
  std::vector<Index> active_;
  std::vector<Index> next_active_;
  core::StreamScratch scratch_;  // detector working memory
};

}  // namespace varade::serve
