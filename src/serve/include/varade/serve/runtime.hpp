// Async scoring runtime: a self-driving, shardable frontend over the
// ScoringEngine.
//
// The synchronous ScoringEngine contract requires push() and step() to be
// externally serialised, so producers and the scorer cannot overlap. The
// AsyncScoringRuntime removes that cap: each stream gets a bounded lock-free
// SampleRing (ingest.hpp), producers push raw samples from arbitrary threads
// with a per-call backpressure policy, and background scoring threads drain
// the rings round-robin into engine push()/step() loops. Scores — each
// carrying the alarm transition its engine decided — flow out through one
// drain_scores() result queue, and an optional scores-ready hook tells the
// consumer when that queue has something to take.
//
// Sharding: AsyncRuntimeConfig::n_shards statically partitions the stream
// space across N shards (ShardPartition, a modulo map — the one place stream
// ids are remapped: a shard engine numbers its streams 0..owned-1, and emit()
// rewrites every score's id through global_of before it reaches the result
// queue). Each shard owns its own scorer thread, its own rings
// (a scorer never touches another shard's cache lines), its own result
// queue, and its own ScoringEngine over a clone_fitted() replica of the
// detector (shard 0 keeps the borrowed instance) — so the shards share
// nothing on the hot path and scale across cores. n_shards = 1 (the default)
// is exactly the pre-shard behaviour; 0 selects hardware_concurrency; shards
// beyond n_streams() stay empty and get no thread or engine.
//
// Determinism: a stream is owned by exactly one shard, that shard's scoring
// thread is the only thread touching its engine, and each ring preserves its
// producers' push order. With one producer per stream (the serving
// contract), every stream's samples reach its engine in exactly the order
// they were pushed; replicas are bit-identical to the original by the
// clone_fitted contract and a row's score_batch score does not depend on the
// batch it rides in — so per-stream scores and alarm events are
// bit-identical to a synchronous ScoringEngine — or one OnlineMonitor per
// stream — fed the same samples, for ANY shard count, producer timing, ring
// capacity, or batching.
//
// Stats: stats() is the one counter read — one aggregate snapshot whose
// streams/shards vectors carry the per-stream and per-shard breakdowns.
//
// Lifecycle: add_streams() / calibrate() before start(); the shard engines
// are built by start() (cloning the detector per shard); push() +
// drain_scores() while running; close() gates intake once, waits
// for in-flight pushes, then drains every ring to empty and joins all
// scorers deterministically — idempotent. Every push that returned Ok or
// DroppedOldest is guaranteed scored by the time close() returns — unless a
// scoring thread itself died on an exception, in which case that shard's
// still-buffered samples are abandoned and the first close() rethrows the
// failure.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "varade/serve/ingest.hpp"
#include "varade/serve/scoring_engine.hpp"

namespace varade::serve {

/// The static stream -> shard map: a modulo partition, so ownership is a
/// closed form and every remapping in the serving stack goes through these
/// three functions (nothing else may re-derive the arithmetic).
///   shard_of(s)  = s % n_shards      — owner shard of global stream s
///   local_of(s)  = s / n_shards      — s's index within its owner's engine
///   global_of(k, i) = i * n_shards + k  — inverse of (shard_of, local_of)
/// Every global stream id is owned by exactly one (shard, local) pair, and
/// with fewer streams than shards only the first n_streams shards own
/// anything — n_active() is the clamped number of non-empty shards.
struct ShardPartition {
  Index n_shards = 1;

  /// Resolves a config shard count: 0 = auto (hardware_concurrency, at
  /// least 1); otherwise the requested value. Throws on negatives.
  static Index resolve(Index requested);

  Index shard_of(Index stream) const { return stream % n_shards; }
  Index local_of(Index stream) const { return stream / n_shards; }
  Index global_of(Index shard, Index local) const { return local * n_shards + shard; }
  /// Shards that own at least one of `n_streams` streams.
  Index n_active(Index n_streams) const { return n_streams < n_shards ? n_streams : n_shards; }
  /// Streams owned by `shard` out of `n_streams` total.
  Index n_owned(Index shard, Index n_streams) const {
    return (n_streams - shard + n_shards - 1) / n_shards;
  }
};

struct AsyncRuntimeConfig {
  /// Configuration of the per-shard ScoringEngines the runtime owns and
  /// drives, one engine per shard.
  ScoringEngineConfig engine;
  /// Per-stream ring capacity in samples; rounded up to a power of two.
  Index ring_capacity = 1024;
  /// Policy applied by push() calls that do not name one.
  BackpressurePolicy backpressure = BackpressurePolicy::Block;
  /// Scorer shards the stream space is partitioned across: the serving
  /// stack's one parallelism setting. 1 = one scoring thread and one engine
  /// (the pre-shard behaviour); 0 = auto (hardware_concurrency). Shards
  /// beyond n_streams() stay empty.
  Index n_shards = 1;
};

/// Per-stream ingestion counters (monotonic; sampled while running they are
/// a consistent snapshot per counter, not across counters).
struct IngestStats {
  long pushed = 0;    ///< samples accepted into the ring (Ok + DroppedOldest)
  long dropped = 0;   ///< older samples evicted by DropOldest pushes
  long rejected = 0;  ///< pushes refused (Reject on full, or runtime closed)
};

/// Per-shard scorer counters (valid any time; exact once quiescent).
struct ShardStats {
  Index n_streams = 0;  ///< streams this shard owns
  long rounds = 0;      ///< scoring rounds (drain + engine step) run
  long naps = 0;        ///< times the shard's scorer actually went to sleep
  long scored = 0;      ///< StreamScores emitted into the result queue
};

/// One aggregate snapshot of the whole runtime: the per-stream ingestion
/// totals summed across streams, the per-shard scorer totals summed across
/// shards, plus the full per-stream/per-shard breakdowns — everything a
/// serving daemon's stats endpoint reports in one call.
///
/// Memory-order contract (the one the TSan snapshot suite pins):
///   - Every counter is an independent atomic updated with relaxed RMWs and
///     read with one relaxed load per snapshot — no torn values, ever, and
///     each counter is individually monotonic across repeated snapshots.
///   - Cross-counter invariants (dropped <= pushed, scored <= pushed,
///     scored == pushed - dropped) are guaranteed only once the runtime is
///     quiescent (after close(), or while no push is in flight). A snapshot
///     taken mid-traffic may catch one counter before its sibling — relaxed
///     loads order nothing across locations, and stats() deliberately does
///     not impose ordering: the hot path stays fence-free.
///   - After close() returns, every counter is exact and the invariants
///     hold with equality.
struct RuntimeStats {
  long pushed = 0;    ///< sum of IngestStats::pushed over all streams
  long dropped = 0;   ///< sum of IngestStats::dropped over all streams
  long rejected = 0;  ///< sum of IngestStats::rejected over all streams
  long rounds = 0;    ///< sum of ShardStats::rounds over all shards
  long naps = 0;      ///< sum of ShardStats::naps over all shards
  long scored = 0;    ///< sum of ShardStats::scored over all shards
  std::vector<IngestStats> streams;  ///< by global stream id
  std::vector<ShardStats> shards;    ///< by shard id
};

/// Telemetry snapshot of one shard's scorer loop plus its engine's phase
/// tracer. All histograms are nanosecond-valued.
struct ShardTelemetry {
  obs::HistogramSnapshot round;  ///< productive round: drain + step
  obs::HistogramSnapshot drain;  ///< ring-drain sweep of a productive round
  obs::HistogramSnapshot emit;   ///< result-queue hop per round
  /// Nap/idle wake to end of the next productive drain sweep.
  obs::HistogramSnapshot wake_to_drain;
  /// Result queue's first score to the drain_scores() call that takes it:
  /// how long finished scores wait for the consumer.
  obs::HistogramSnapshot route_delay;
  EngineTelemetry engine;

  void merge(const ShardTelemetry& other);
};

/// Whole-runtime telemetry: per-shard snapshots plus their merge. Obtained
/// from AsyncScoringRuntime::telemetry(); safe to take while scorers run
/// (same relaxed-snapshot contract as RuntimeStats). All-zero when telemetry
/// is compiled off (-DVARADE_OBS=OFF).
struct RuntimeTelemetry {
  ShardTelemetry total;                ///< merged across active shards
  std::vector<ShardTelemetry> shards;  ///< by shard id (active shards only)
};

class AsyncScoringRuntime {
 public:
  /// Same borrow contract as ScoringEngine: detector fitted, normalizer
  /// fitted, both outlive the runtime.
  AsyncScoringRuntime(core::AnomalyDetector& detector, const data::MinMaxNormalizer& normalizer,
                      AsyncRuntimeConfig config = {});
  ~AsyncScoringRuntime();  // close()s if still running

  AsyncScoringRuntime(const AsyncScoringRuntime&) = delete;
  AsyncScoringRuntime& operator=(const AsyncScoringRuntime&) = delete;

  /// Stream registration; only before start().
  Index add_stream();
  Index add_streams(Index n);
  Index n_streams() const { return n_streams_; }

  /// The resolved stream -> shard map (n_shards already resolved; empty
  /// shards included — see n_active_shards()).
  const ShardPartition& partition() const { return partition_; }
  /// Resolved shard count (config value, with 0 resolved to the hardware).
  Index n_shards() const { return partition_.n_shards; }
  /// Shards that own streams and therefore get a scorer thread + engine.
  Index n_active_shards() const { return partition_.n_active(n_streams_); }

  /// Threshold setup; only before start(). calibrate() computes the same
  /// quantile threshold as ScoringEngine::calibrate on the borrowed
  /// detector; start() then distributes it to every shard engine.
  void calibrate(const data::MultivariateSeries& train);
  void set_threshold(float threshold);
  float threshold() const { return threshold_; }

  /// Scores-ready hook; only before start(). A scorer thread calls it when
  /// it runs out of input (a drain sweep finds every ring empty) after a
  /// round found its shard's result queue empty — once per busy period,
  /// not once per round — and after its final drain at close(). Every
  /// round is counted in stats() and telemetry() before its scores become
  /// visible. A consumer that sleeps until the hook signals loses no wakeup
  /// if it resets its signal *before* calling drain_scores(): a round that
  /// lands after a shard's queue was taken finds it empty and owes the hook
  /// another call (a stale signal costs one empty drain). Under sustained
  /// input a busy period can be long, so a consumer that wants a bound on
  /// the wait also drains on its own schedule (net::Server drains on every
  /// poll-loop pass). The hook runs on the scorer threads until close()
  /// returns, so it must be thread-safe and outlive that; an exception from
  /// it fails the shard like a scoring one.
  void set_scores_ready(std::function<void()> hook);

  /// Builds the shard engines (shard 0 on the borrowed detector, one
  /// clone_fitted() replica per further shard) and launches one scoring
  /// thread per active shard. Requires >= 1 stream and a calibrated
  /// threshold.
  void start();

  /// Enqueues one raw sample for `stream` under `policy`, or under the
  /// config's backpressure policy when none is given. `count` is the number
  /// of floats at `raw_sample` and must equal the normalizer's channel count
  /// (validated — the explicit length contract of the raw-pointer path).
  /// Thread-safe against any other
  /// push and the scorers; one producer per stream keeps that stream's order
  /// (see header comment). After close() begins, returns Rejected without
  /// enqueueing. Block-policy pushes also unblock with Rejected when the
  /// runtime closes under them.
  PushResult push(Index stream, const float* raw_sample, Index count,
                  std::optional<BackpressurePolicy> policy = std::nullopt);

  /// Moves out every score produced since the last call, merging the
  /// per-shard result queues — the runtime's one result path (see
  /// set_scores_ready() for when to call it).
  /// Per-stream order is emission order; cross-stream interleaving between
  /// shards is unspecified. Callable from any one consumer thread, during
  /// operation and after close().
  std::vector<StreamScore> drain_scores();

  /// Stops intake, waits for in-flight pushes, drains every ring to empty,
  /// scores the remainder, and joins all scoring threads. Idempotent. If a
  /// scoring thread died on an exception, the first close() rethrows it
  /// (the destructor swallows it instead).
  void close();

  bool started() const { return started_.load(std::memory_order_acquire); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// The runtime's one stats read: an aggregate snapshot across every
  /// stream and shard, with the per-stream (`streams[s]`) and per-shard
  /// (`shards[k]`) breakdowns; valid any time (see RuntimeStats for the
  /// exact memory-order contract).
  RuntimeStats stats() const;
  /// Latency telemetry across every active shard; valid any time (relaxed
  /// histogram snapshots — see obs::LogHistogram). Before start() the
  /// engine sections are empty.
  RuntimeTelemetry telemetry() const;

  /// Per-stream results by global stream id, forwarded to the owning
  /// shard's engine. Quiescent-only: callable before start() (empty-state
  /// defaults) or after close() — while scorers are running they would race
  /// with them, so they throw instead.
  bool in_alarm(Index stream) const;
  const std::vector<core::AnomalyEvent>& events(Index stream) const;
  Index samples_seen(Index stream) const;

  /// Shard `shard`'s engine, for quiescent inspection after start() (same
  /// caveat as above). Its streams appear under engine-local ids
  /// 0..owned-1; partition().global_of(shard, local) maps them back.
  const ScoringEngine& shard_engine(Index shard) const;

  const AsyncRuntimeConfig& config() const { return config_; }

 private:
  /// Per-stream ingestion counters. The stream's ring itself lives in the
  /// owning Shard's `arena` (built by start()); this struct is
  /// pure bookkeeping so registering 100k streams allocates no ring storage
  /// until the shard layout is final.
  struct StreamIngest {
    std::atomic<long> pushed{0};
    std::atomic<long> dropped{0};
    std::atomic<long> rejected{0};
    /// Pushes currently inside this stream's intake gate (see below).
    std::atomic<int> active_pushers{0};
  };

  /// Everything one scorer thread owns. Rings, engine, result queue, and
  /// nap state are all per shard, so shards share no mutable state on the
  /// hot path.
  struct Shard {
    /// This shard's index: emit() remaps its engine's local ids through it.
    Index id = 0;
    /// Counters of the streams this shard owns, in local-index order. Deque:
    /// StreamIngest holds atomics (immovable) and producers keep references
    /// across add_stream() calls made before start().
    std::deque<StreamIngest> ingest;
    /// This shard's rings, one per owned stream in local-index order, over
    /// slabs shared by all of them. Built by start(), before intake opens;
    /// only touched after start() published `started_`.
    std::unique_ptr<RingArena> arena;
    /// This shard's detector replica; null for shard 0 (which scores
    /// through the borrowed detector).
    std::unique_ptr<core::AnomalyDetector> replica;
    /// This shard's engine over its owned streams under local ids; built by
    /// start().
    std::unique_ptr<ScoringEngine> engine;
    std::thread scorer;
    /// Per-shard nap handshake (see scorer loop): producers that observe
    /// asleep notify under wake_mu, so an idle shard sleeps independently
    /// of the others and a hot shard never wakes an idle one.
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::atomic<bool> asleep{false};
    std::atomic<long> rounds{0};
    std::atomic<long> naps{0};
    /// StreamScores emitted into this shard's result queue.
    std::atomic<long> scored{0};
    /// Scorer-loop latency histograms (recorded by the shard's scorer only;
    /// snapshotted by telemetry() from any thread).
    obs::LogHistogram round_hist;
    obs::LogHistogram drain_hist;
    obs::LogHistogram emit_hist;
    obs::LogHistogram wake_hist;
    /// Recorded by drain_scores() on the consumer thread.
    obs::LogHistogram route_hist;
    /// Per-shard result queue; drain_scores() merges across shards.
    std::mutex results_mu;
    std::vector<StreamScore> results;
    /// When `results` last went non-empty (0 with telemetry compiled off);
    /// guarded by results_mu.
    std::int64_t results_since_ns = 0;
    /// First exception thrown on this shard's scoring thread (it shuts
    /// intake and exits); written before the thread ends, read after join.
    std::exception_ptr error;
  };

  void shard_loop(Shard& shard);
  void shard_loop_impl(Shard& shard);
  /// Pops samples from the shard's `local` ring straight into its engine
  /// (zero-copy: SampleRing::try_pop_with hands the engine the in-ring
  /// slot) — one ring's worth when `bounded` (round-robin fairness), until
  /// empty otherwise (final drain); returns the number drained.
  long drain_ring(Shard& shard, Index local, bool bounded);
  /// Rewrites each score's engine-local stream id to its global id and
  /// appends the batch to the shard's result queue. Returns true when the
  /// queue was empty: the scorer then owes notify_scores_ready() when it
  /// next runs out of input (or after its final drain).
  bool emit(Shard& shard, std::vector<StreamScore> scores);
  /// Calls the scores-ready hook, if one is set.
  void notify_scores_ready();
  void wake_shard(Shard& shard);
  void require_quiescent(const char* what) const;
  void require_started_shards(const char* what) const;
  StreamIngest& ingest_at(Index stream);
  const StreamIngest& ingest_at(Index stream) const;

  core::AnomalyDetector* detector_;
  const data::MinMaxNormalizer* normalizer_;
  AsyncRuntimeConfig config_;
  ShardPartition partition_;
  Index n_streams_ = 0;
  /// Deque: Shard is immovable (atomics, mutexes); sized n_shards() at
  /// construction, only the first n_active_shards() ever own anything.
  std::deque<Shard> shards_;

  float threshold_ = 0.0F;
  bool calibrated_ = false;
  /// Set before start(), read by the scorer threads start() launches.
  std::function<void()> scores_ready_;

  /// Atomic like every other lifecycle flag: push()/started() may be called
  /// from threads that exist across the start() boundary. start() stores it
  /// after accepting_, so a push that observes started_ also sees an open
  /// intake.
  std::atomic<bool> started_{false};
  std::atomic<bool> closing_{false};
  std::atomic<bool> closed_{false};
  /// Intake gate: push() increments its stream's active_pushers and checks
  /// accepting_ before touching the ring; close() clears accepting_ and
  /// waits for every stream's active_pushers to reach zero before telling
  /// the scorers to finish, so every accepted sample is visible to the final
  /// drains. The counter lives per stream so producers on disjoint streams
  /// never write a shared cache line, and the gate accesses on both sides
  /// are seq_cst: with acquire/release alone, the store-buffering outcome
  /// (close() reads a zero counter while a straggler push still reads
  /// accepting_ == true) would let an Ok push land after the final drain.
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace varade::serve
