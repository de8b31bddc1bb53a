// Multi-stream batched scoring engine: the serving layer of the reproduction.
//
// Turns the per-sample OnlineMonitor loop into a throughput-oriented
// frontend: N independent streams — each with its own normalizing ring
// buffer, warm-up state, and debounce/hold-off alarm state machine — are
// multiplexed onto one fitted AnomalyDetector. step() drains buffered
// samples round by round (one sample per stream per round): it normalises
// the round's samples, assembles ready contexts into [B, C, T] / [B, C]
// batches, runs the batches through the detector's score_batch contract,
// and applies the per-stream alarm logic. One engine runs on one thread;
// AsyncScoringRuntime scales across cores by giving each shard its own
// engine over its own clone_fitted() replica.
//
// Per-stream state is structure-of-arrays, sized for fleets: context rings
// live in one contiguous [n_streams, C, T] float slab (ring-indexed per
// stream), raw pushed samples are staged in one append-only arena, and all
// bookkeeping (ring positions, warm-up counts, scores) is flat parallel
// arrays. Pushing a sample and scoring a round allocate nothing per stream,
// step()'s gather memcpys from contiguous slab rows, and normalisation runs
// vectorised over stream-major blocks — the layout that keeps 100k–1M
// streams memory- and cache-viable on one host.
//
// The engine is generic over core::AnomalyDetector: any of the paper's six
// detectors plugs in unchanged.
//
// Determinism: a row's score_batch score does not depend on the batch it
// rides in (the detector contract; OnlineMonitor scores 1-row batches) and
// the slab normalisation applies the exact per-element expression of
// transform_sample — so scores and alarm events are bit-for-bit identical to
// running one OnlineMonitor per stream sequentially, at any batch size.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "varade/core/detector.hpp"
#include "varade/core/monitor.hpp"
#include "varade/obs/telemetry.hpp"

namespace varade::serve {

/// The five phases of one step() round, in execution order. Indexes into
/// EngineTelemetry::phases and the phase labels of every exposition.
inline constexpr int kStepPhases = 5;
inline constexpr const char* kStepPhaseName[kStepPhases] = {
    "stage", "normalize", "gather", "score", "alarm"};

/// Telemetry snapshot of one engine (merge shard snapshots for fleet-wide
/// views). All durations are nanoseconds.
struct EngineTelemetry {
  /// Per-round duration of each step() phase (gather/score only recorded on
  /// rounds with warm streams).
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
  /// Maximum contexts per score_batch call.
  Index max_batch = 32;
  /// Alarm behaviour shared by every stream.
  core::MonitorConfig monitor;
};

/// Score of one (stream, sample) pair produced by step(). `stream` is the
/// stream's *global* id: identical to the engine-local id for streams
/// registered via add_stream(), or the caller-chosen label for streams
/// registered via the subset-view add_stream(global_id) overload — so a
/// shard-local engine serving a slice of a larger stream space reports
/// scores under the ids its owner knows.
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

  /// Registers a new independent stream; returns its id (dense, from 0).
  /// The global id reported in StreamScore equals the local id.
  Index add_stream();
  /// Subset-view registration: the stream is engine-local (dense local id
  /// returned, used by push()/events()/...), but StreamScore::stream carries
  /// `global_id` — so a sharded frontend can run one engine per disjoint
  /// slice of a larger stream space and merge the scores without remapping.
  /// Throws on negative or already-registered global ids (either would emit
  /// misattributed StreamScores through a subset view).
  Index add_stream(Index global_id);
  Index add_streams(Index n);
  Index n_streams() const { return static_cast<Index>(global_ids_.size()); }
  /// Global id of a local stream (== the local id unless the subset-view
  /// overload chose otherwise).
  Index global_id(Index stream) const;
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

  /// Batched score_batch calls issued so far (throughput accounting).
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
  /// Scores the per-chunk batches (chunk ci holds the contexts/observations
  /// of streams ready[ci*max_batch ...]) and writes each row's score into
  /// score_[stream].
  void score_chunks(const std::vector<Tensor>& contexts, const std::vector<Tensor>& observed,
                    const std::vector<Index>& ready);

  core::AnomalyDetector* detector_;
  const data::MinMaxNormalizer* normalizer_;
  ScoringEngineConfig config_;

  float threshold_ = 0.0F;
  bool calibrated_ = false;
  long forward_calls_ = 0;

  Index window_ = 0;    // detector context window, fixed at construction
  Index channels_ = 0;  // normalizer channel count, fixed at construction

  // --- Structure-of-arrays per-stream state (indexed by local stream id) ---
  // Context rings: one [C, T] row per stream in a single contiguous slab.
  // ring_start_ is the time index of the oldest sample (always 0 while the
  // ring is filling); ring_fill_ counts stored samples (== window_ once warm).
  std::vector<float> ctx_slab_;  // [n_streams, C, T]
  std::vector<Index> ring_start_;
  std::vector<Index> ring_fill_;
  std::vector<Index> samples_seen_;
  std::vector<Index> global_ids_;  // id reported in StreamScore
  std::vector<float> score_;       // this round's score per stream
  std::vector<core::AlarmEdge> edge_;  // this round's alarm transition per stream
  /// Deque, not vector: references handed out by events() must survive
  /// add_stream().
  std::deque<core::AlarmTracker> alarms_;
  Index max_global_id_ = -1;  // fast duplicate check for increasing ids

  // Pending raw samples: one append-only float arena shared by all streams
  // (no per-sample allocation), plus per-stream offset queues into it.
  // pending_head_[s] is the next unconsumed entry of pending_[s]; both reset
  // at the end of every step().
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
  std::vector<std::int64_t> round_ts_;  // per-active-stream enqueue ts scratch

  // Round-scratch slabs reused across step() rounds (sized to the round's
  // active streams; capacity retained).
  std::vector<float> round_raw_;           // [n_active, C] raw samples
  std::vector<float> round_norm_;          // [n_active, C] normalised samples
  std::vector<std::uint8_t> round_ready_;  // per active stream: ring was full
  std::vector<Index> active_;
  std::vector<Index> next_active_;
  std::vector<Index> ready_;
  std::vector<Index> ready_pos_;  // index into the round slabs per ready row
};

}  // namespace varade::serve
