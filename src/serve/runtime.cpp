#include "varade/serve/runtime.hpp"

#include <utility>

namespace varade::serve {

using detail::stream_range_message;

namespace {

/// Push->score latency sampling period: every Nth accepted push per stream
/// carries an enqueue timestamp through the ring's timestamp lane. Power of
/// two so the hot-path check is a mask.
constexpr long kPushSampleEvery = 64;

// The sleep handshake between push() and a scorer going to sleep (a Dekker
// pair): push() publishes its sample and then reads `asleep`; the scorer
// writes `asleep` and then re-checks the rings. Both steps on `asleep` are
// seq_cst RMWs, which are totally ordered on the flag: if the scorer's comes
// first, push() reads `true` and wakes it; if push()'s comes first, the
// scorer's exchange reads from it and synchronizes-with it, so the re-check
// sees the sample. Never neither, so the scorer's sleep needs no timeout.
// Every other write of `asleep` is an RMW too (an exchange), so no plain
// store breaks the release sequence between them. (Unlike a fence pair, this
// is the formulation TSan can check.)

/// Scorer side: marks the shard asleep, ordered before the ring re-check
/// that follows.
void announce_asleep(std::atomic<bool>& asleep) {
  asleep.exchange(true, std::memory_order_seq_cst);
}

/// Producer side, after the sample is in the ring: whether the scorer may be
/// asleep (then the producer must wake it).
bool may_be_asleep(std::atomic<bool>& asleep) {
  bool expected = false;  // a no-op RMW when awake; a plain load sees `true`
  return !asleep.compare_exchange_strong(expected, false, std::memory_order_seq_cst);
}

}  // namespace

Index ShardPartition::resolve(Index requested) {
  check(requested >= 0, "n_shards must be >= 0 (0 = auto)");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<Index>(hw);
}

AsyncScoringRuntime::AsyncScoringRuntime(core::AnomalyDetector& detector,
                                         const data::MinMaxNormalizer& normalizer,
                                         AsyncRuntimeConfig config)
    : detector_(&detector),
      normalizer_(&normalizer),
      config_(config),
      partition_{ShardPartition::resolve(config.n_shards)} {
  // The shard engines are built lazily by start() (the stream set must be
  // final first), so the construction-time validation they would have done
  // happens here instead.
  check(detector.fitted(), "AsyncScoringRuntime requires a fitted detector");
  check(normalizer.fitted(), "AsyncScoringRuntime requires a fitted normalizer");
  check(config_.engine.max_batch >= 1, "max_batch must be >= 1");
  core::validate(config_.engine.monitor);
  check(config_.ring_capacity >= 1, "ring_capacity must be >= 1");
  for (Index k = 0; k < partition_.n_shards; ++k) shards_.emplace_back().id = k;
}

AsyncScoringRuntime::~AsyncScoringRuntime() {
  try {
    close();
  } catch (...) {
    // A scoring-thread failure surfaced by close() must not escape the
    // destructor; call close() explicitly to observe it.
  }
}

Index AsyncScoringRuntime::add_stream() {
  check(!started_, "add_stream after start()");
  const Index id = n_streams_;
  // Counters only: the ring storage for every stream a shard owns is one
  // arena built by start(), once the stream set is final.
  shards_[static_cast<std::size_t>(partition_.shard_of(id))].ingest.emplace_back();
  ++n_streams_;
  return id;
}

Index AsyncScoringRuntime::add_streams(Index n) {
  check(n >= 1, "add_streams needs n >= 1");
  const Index first = n_streams_;
  for (Index i = 0; i < n; ++i) add_stream();
  return first;
}

void AsyncScoringRuntime::calibrate(const data::MultivariateSeries& train) {
  check(!started_, "calibrate after start()");
  // The same quantile rule ScoringEngine::calibrate applies, run once on the
  // borrowed detector; start() hands the threshold to every shard engine.
  threshold_ = core::calibrate_threshold(*detector_, train, config_.engine.monitor);
  calibrated_ = true;
}

void AsyncScoringRuntime::set_threshold(float threshold) {
  check(!started_, "set_threshold after start()");
  threshold_ = threshold;
  calibrated_ = true;
}

void AsyncScoringRuntime::set_scores_ready(std::function<void()> hook) {
  check(!started_, "set_scores_ready after start()");
  scores_ready_ = std::move(hook);
}

void AsyncScoringRuntime::start() {
  check(!started_, "start() called twice");
  check(!closed(), "start() after close()");
  check(n_streams_ >= 1, "start() with no streams");
  check(calibrated_, "start() before calibrate()/set_threshold()");

  const Index active = n_active_shards();
  for (Index k = 0; k < active; ++k) {
    Shard& shard = shards_[static_cast<std::size_t>(k)];
    // One detector replica per shard beyond the first (shard 0 scores
    // through the borrowed instance), so shards share nothing while scoring.
    if (k > 0) {
      shard.replica = detector_->clone_fitted();
      check(shard.replica != nullptr, detector_->name() + ": clone_fitted() returned null");
    }
    core::AnomalyDetector& det = shard.replica ? *shard.replica : *detector_;
    shard.engine = std::make_unique<ScoringEngine>(det, *normalizer_, config_.engine);
    // The engine numbers the shard's streams 0..owned-1 (local ids); emit()
    // maps its scores back to global ids.
    const Index owned = partition_.n_owned(k, n_streams_);
    shard.engine->add_streams(owned);
    shard.engine->set_threshold(threshold_);
    // Ring storage: one arena per shard holding every owned stream's ring.
    // Built before the accepting_/started_ stores below, so any push that
    // observes an open intake also sees fully constructed rings.
    shard.arena =
        std::make_unique<RingArena>(owned, normalizer_->n_channels(), config_.ring_capacity);
  }

  // accepting_ first: a push that observes started_ must find intake open.
  accepting_.store(true, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  for (Index k = 0; k < active; ++k) {
    Shard& shard = shards_[static_cast<std::size_t>(k)];
    shard.scorer = std::thread([this, &shard] { shard_loop(shard); });
  }
}

AsyncScoringRuntime::StreamIngest& AsyncScoringRuntime::ingest_at(Index stream) {
  // Branch before building the message: this sits on the per-sample push
  // path, which must not allocate on success. Global bounds and global
  // wording — the shard remap below cannot produce an out-of-range local.
  if (stream < 0 || stream >= n_streams_)
    throw Error(stream_range_message(stream, n_streams_));
  return shards_[static_cast<std::size_t>(partition_.shard_of(stream))]
      .ingest[static_cast<std::size_t>(partition_.local_of(stream))];
}

const AsyncScoringRuntime::StreamIngest& AsyncScoringRuntime::ingest_at(Index stream) const {
  if (stream < 0 || stream >= n_streams_)
    throw Error(stream_range_message(stream, n_streams_));
  return shards_[static_cast<std::size_t>(partition_.shard_of(stream))]
      .ingest[static_cast<std::size_t>(partition_.local_of(stream))];
}

PushResult AsyncScoringRuntime::push(Index stream, const float* raw_sample, Index count,
                                     std::optional<BackpressurePolicy> requested) {
  StreamIngest& ingest = ingest_at(stream);
  const BackpressurePolicy policy = requested.value_or(config_.backpressure);
  if (count != normalizer_->n_channels())
    throw Error(detail::channel_mismatch_message(normalizer_->n_channels(), count));
  Shard& shard = shards_[static_cast<std::size_t>(partition_.shard_of(stream))];
  const Index local = partition_.local_of(stream);
  if (!started_.load(std::memory_order_acquire)) {
    // A closed runtime rejects (documented contract) even if it was never
    // started; pushing before start() on a live runtime is a usage error.
    if (closing_.load(std::memory_order_acquire)) {
      ingest.rejected.fetch_add(1, std::memory_order_relaxed);
      return PushResult::Rejected;
    }
    throw Error("push before start()");
  }

  // Intake gate: while the stream's active_pushers is held, close() will not
  // let the scorers finish — so a push that passes the accepting_ check is
  // guaranteed to be drained and scored. seq_cst on both gate accesses (and
  // on close()'s side) rules out the store-buffering interleaving where
  // close() misses the counter and this push misses the accepting_ flip.
  ingest.active_pushers.fetch_add(1, std::memory_order_seq_cst);
  PushResult result = PushResult::Rejected;
  if (accepting_.load(std::memory_order_seq_cst)) {
    // Safe to touch only here: an open intake implies start() finished
    // building the shard's arena-backed rings (release/acquire on started_).
    SampleRing& ring = shard.arena->ring(local);
    // Sampled end-to-end latency: every kPushSampleEvery-th accepted push on
    // a stream stamps the ring slot with its enqueue time; the timestamp
    // rides the lane to the engine and is recorded when the sample's round
    // completes. One relaxed load + mask when telemetry is on, nothing at
    // all when compiled off.
    std::int64_t enqueue_ns = 0;
    if constexpr (obs::kEnabled) {
      if ((ingest.pushed.load(std::memory_order_relaxed) & (kPushSampleEvery - 1)) == 0)
        enqueue_ns = obs::now_ns();
    }
    bool dropped_any = false;
    Backoff backoff;
    for (;;) {
      if (ring.try_push(raw_sample, enqueue_ns)) {
        result = dropped_any ? PushResult::DroppedOldest : PushResult::Ok;
        break;
      }
      if (policy == BackpressurePolicy::Reject) break;
      if (policy == BackpressurePolicy::DropOldest) {
        // Evict from the consumer side (lock-free multi-popper ring); the
        // scorer may empty the ring first, in which case the retry just
        // succeeds without a drop.
        if (ring.try_pop_discard()) {
          ingest.dropped.fetch_add(1, std::memory_order_relaxed);
          dropped_any = true;
        }
        continue;
      }
      // Block: wait for the shard's scorer to free a slot; bail out if the
      // runtime closes under us.
      if (!accepting_.load(std::memory_order_acquire)) break;
      backoff.wait();
    }
    if (result == PushResult::Rejected) {
      ingest.rejected.fetch_add(1, std::memory_order_relaxed);
    } else {
      ingest.pushed.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    ingest.rejected.fetch_add(1, std::memory_order_relaxed);
  }
  ingest.active_pushers.fetch_sub(1, std::memory_order_release);

  // Only the owning shard's scorer cares about this sample.
  if (result != PushResult::Rejected && may_be_asleep(shard.asleep)) wake_shard(shard);
  return result;
}

void AsyncScoringRuntime::wake_shard(Shard& shard) {
  {
    std::lock_guard<std::mutex> lock(shard.wake_mu);
    // Under wake_mu the flag is exact: the scorer holds the mutex from its
    // store of `asleep` until its wait releases it. Clearing the flag here,
    // not in the scorer, is what ends the wait, so the producers that push
    // while the scorer is still waking see it awake and skip the mutex.
    if (!shard.asleep.exchange(false, std::memory_order_relaxed)) return;
  }
  shard.wake_cv.notify_one();
}

bool AsyncScoringRuntime::all_asleep() const {
  const Index active = n_active_shards();
  for (Index k = 0; k < active; ++k)
    if (!shards_[static_cast<std::size_t>(k)].asleep.load(std::memory_order_acquire)) return false;
  return true;
}

long AsyncScoringRuntime::drain_ring(Shard& shard, Index local, bool bounded) {
  SampleRing& ring = shard.arena->ring(local);
  ScoringEngine& engine = *shard.engine;
  const Index channels = ring.channels();
  const Index max_pops = bounded ? ring.capacity() : -1;
  long drained = 0;
  for (Index k = 0; max_pops < 0 || k < max_pops; ++k) {
    // Zero-copy: the engine buffers the sample straight from the ring slot;
    // no staging vector in between. The telemetry timestamp lane rides along
    // into the engine's pending arena.
    if (!ring.try_pop_with([&](const float* sample, std::int64_t enqueue_ns) {
          engine.push(local, sample, channels, enqueue_ns);
        }))
      break;
    ++drained;
  }
  return drained;
}

bool AsyncScoringRuntime::emit(Shard& shard, std::vector<StreamScore> scores) {
  if (scores.empty()) return false;
  // The one choke point every emitted score passes (steady-state rounds and
  // the final close() drain alike), so this counter is the ground truth for
  // "scored": after close(), scored == pushed - dropped. It is also the one
  // place a score's engine-local stream id becomes its global id.
  for (StreamScore& score : scores) score.stream = partition_.global_of(shard.id, score.stream);
  shard.scored.fetch_add(static_cast<long>(scores.size()), std::memory_order_relaxed);
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(shard.results_mu);
    was_empty = shard.results.empty();
    if (was_empty) {
      shard.results.swap(scores);  // the round's vector becomes the queue: no copy
      shard.results_since_ns = obs::tick();
    } else {
      shard.results.insert(shard.results.end(), scores.begin(), scores.end());
    }
  }
  // Only the empty -> non-empty edge owes a ring: while the queue holds
  // scores, the consumer already owes it a drain.
  return was_empty;
}

void AsyncScoringRuntime::notify_scores_ready() {
  if (scores_ready_) scores_ready_();
}

std::vector<StreamScore> AsyncScoringRuntime::drain_scores() {
  std::vector<StreamScore> out;
  const Index active = n_active_shards();
  for (Index k = 0; k < active; ++k) {
    Shard& shard = shards_[static_cast<std::size_t>(k)];
    std::lock_guard<std::mutex> lock(shard.results_mu);
    if (shard.results.empty()) continue;
    obs::record_since(shard.route_hist, shard.results_since_ns);
    if (out.empty()) {
      out.swap(shard.results);
    } else {
      out.insert(out.end(), shard.results.begin(), shard.results.end());
      shard.results.clear();
    }
  }
  return out;
}

void AsyncScoringRuntime::shard_loop(Shard& shard) {
  try {
    shard_loop_impl(shard);
  } catch (...) {
    // Shut intake and exit; close() rethrows after the join. Samples still
    // buffered in this shard's rings at this point are not scored.
    shard.error = std::current_exception();
    accepting_.store(false, std::memory_order_release);
  }
}

void AsyncScoringRuntime::shard_loop_impl(Shard& shard) {
  const Index n = shard.arena->n_rings();
  // Set at every wake; the next productive drain sweep records the
  // wake-to-drain latency and clears it. Scorer-thread-local by design.
  std::int64_t wake_marker = 0;
  // Set when a round's scores reach an empty result queue, cleared when the
  // hook runs. The hook runs when the scorer runs out of input, not after
  // each round: a round's scores then leave
  // with those of every round that follows it back to back, so replies go
  // out once per busy period and a closed-loop client refills its streams
  // together (ringing per round split them into groups whose sizes, and
  // with them the batch sizes and the throughput, drifted from run to run).
  bool unannounced = false;
  for (;;) {
    // One round: drain this shard's rings round-robin into its engine (each
    // ring FIFO, so per-stream producer order is preserved), then score. At
    // most one ring's worth per stream per round, so a hot producer
    // refilling its ring cannot starve the shard's other streams.
    const std::int64_t t_round = obs::tick();
    long drained = 0;
    for (Index i = 0; i < n; ++i) drained += drain_ring(shard, i, /*bounded=*/true);
    if (drained > 0) {
      if constexpr (obs::kEnabled) {
        const std::int64_t t_drained = obs::now_ns();
        shard.drain_hist.record(t_drained - t_round);
        if (wake_marker != 0) {
          shard.wake_hist.record(t_drained - wake_marker);
          wake_marker = 0;
        }
      }
      std::vector<StreamScore> scores = shard.engine->step();
      // Count the round before its scores become visible: a consumer that
      // drains them (woken by the hook or not) then finds the round in
      // stats() and telemetry(), so a /metrics scrape taken after its scores
      // arrive counts the round that scored them.
      const std::int64_t t_emit = obs::tick();
      if constexpr (obs::kEnabled) shard.round_hist.record(t_emit - t_round);
      shard.rounds.fetch_add(1, std::memory_order_relaxed);
      unannounced = emit(shard, std::move(scores)) || unannounced;
      if constexpr (obs::kEnabled) shard.emit_hist.record(obs::now_ns() - t_emit);
      continue;
    }
    // All rings looked empty — but that scan may predate a producer's last
    // push (the scan and the push/close() handoff can interleave). stop_ is
    // raised only after intake is shut and every in-flight push has landed,
    // so one more full drain observed AFTER the stop_ load sees everything
    // that will ever arrive; only then is exiting safe.
    if (stop_.load(std::memory_order_acquire)) {
      long final_drained = 0;
      for (Index i = 0; i < n; ++i) final_drained += drain_ring(shard, i, false);
      if (final_drained > 0) {
        std::vector<StreamScore> scores = shard.engine->step();
        shard.rounds.fetch_add(1, std::memory_order_relaxed);
        unannounced = emit(shard, std::move(scores)) || unannounced;
      }
      if (unannounced) notify_scores_ready();
      return;
    }
    // Out of input: sleep until one of this shard's producers (or close())
    // wakes it; no timeout (see announce_asleep for why none is needed).
    // Under wake_mu: mark the shard asleep, ring for the scores this busy
    // period left (after the mark, so a consumer woken by the ring already
    // sees the shard asleep), then re-check the rings and stop_. A producer
    // that pushed before the mark is seen by the re-check; one that pushes
    // after it sees the mark and, waiting for wake_mu, notifies only once
    // this thread waits.
    {
      std::unique_lock<std::mutex> lock(shard.wake_mu);
      announce_asleep(shard.asleep);
      if (unannounced) {
        unannounced = false;
        notify_scores_ready();
      }
      bool pending = stop_.load(std::memory_order_acquire);
      for (Index i = 0; i < n && !pending; ++i)
        pending = !shard.arena->ring(i).empty_approx();
      if (pending) {
        shard.asleep.exchange(false, std::memory_order_relaxed);
      } else {
        shard.naps.fetch_add(1, std::memory_order_relaxed);
        // wake_shard() clears the flag before it notifies, so a spurious
        // wakeup waits on.
        shard.wake_cv.wait(lock, [&] { return !shard.asleep.load(std::memory_order_relaxed); });
      }
    }
    // Every sleep-block exit is a wake (a producer, close(), or the pending
    // re-check firing); the next productive drain records the gap.
    wake_marker = obs::tick();
  }
}

void AsyncScoringRuntime::close() {
  // First caller performs the shutdown; any concurrent caller waits for it.
  if (closing_.exchange(true, std::memory_order_acq_rel)) {
    Backoff spin;
    while (!closed()) spin.wait();
    return;
  }
  if (!started_.load(std::memory_order_acquire)) {
    closed_.store(true, std::memory_order_release);
    return;
  }
  // 1. Shut intake: new pushes reject, Block-policy pushes unblock. seq_cst
  //    pairs with the gate in push() — see the header comment.
  accepting_.store(false, std::memory_order_seq_cst);
  // 2. Wait for in-flight pushes, so every accepted sample is in a ring.
  Backoff backoff;
  for (Shard& shard : shards_) {
    for (StreamIngest& ingest : shard.ingest) {
      while (ingest.active_pushers.load(std::memory_order_seq_cst) > 0) backoff.wait();
      backoff.reset();
    }
  }
  // 3. Tell every scorer to drain to empty and exit, and join them all.
  stop_.store(true, std::memory_order_release);
  const Index active = n_active_shards();
  for (Index k = 0; k < active; ++k) wake_shard(shards_[static_cast<std::size_t>(k)]);
  std::exception_ptr first_error;
  for (Index k = 0; k < active; ++k) {
    Shard& shard = shards_[static_cast<std::size_t>(k)];
    shard.scorer.join();
    if (shard.error && !first_error) first_error = shard.error;
  }
  closed_.store(true, std::memory_order_release);
  if (first_error) std::rethrow_exception(first_error);
}

RuntimeStats AsyncScoringRuntime::stats() const {
  RuntimeStats total;
  total.streams.reserve(static_cast<std::size_t>(n_streams_));
  for (Index s = 0; s < n_streams_; ++s) {
    const StreamIngest& ingest = ingest_at(s);
    IngestStats& st = total.streams.emplace_back();
    st.pushed = ingest.pushed.load(std::memory_order_relaxed);
    st.dropped = ingest.dropped.load(std::memory_order_relaxed);
    st.rejected = ingest.rejected.load(std::memory_order_relaxed);
    total.pushed += st.pushed;
    total.dropped += st.dropped;
    total.rejected += st.rejected;
  }
  total.shards.reserve(static_cast<std::size_t>(n_shards()));
  for (const Shard& sh : shards_) {
    ShardStats& st = total.shards.emplace_back();
    st.n_streams = static_cast<Index>(sh.ingest.size());
    st.rounds = sh.rounds.load(std::memory_order_relaxed);
    st.naps = sh.naps.load(std::memory_order_relaxed);
    st.scored = sh.scored.load(std::memory_order_relaxed);
    total.rounds += st.rounds;
    total.naps += st.naps;
    total.scored += st.scored;
  }
  return total;
}

void ShardTelemetry::merge(const ShardTelemetry& other) {
  round.merge(other.round);
  drain.merge(other.drain);
  emit.merge(other.emit);
  wake_to_drain.merge(other.wake_to_drain);
  route_delay.merge(other.route_delay);
  engine.merge(other.engine);
}

RuntimeTelemetry AsyncScoringRuntime::telemetry() const {
  RuntimeTelemetry t;
  const Index active = n_active_shards();
  t.shards.reserve(static_cast<std::size_t>(active));
  for (Index k = 0; k < active; ++k) {
    const Shard& sh = shards_[static_cast<std::size_t>(k)];
    ShardTelemetry st;
    st.round = sh.round_hist.snapshot();
    st.drain = sh.drain_hist.snapshot();
    st.emit = sh.emit_hist.snapshot();
    st.wake_to_drain = sh.wake_hist.snapshot();
    st.route_delay = sh.route_hist.snapshot();
    // The engine exists only once start() ran; its histograms are atomic,
    // so snapshotting while the scorer runs is safe.
    if (sh.engine) st.engine = sh.engine->telemetry();
    t.total.merge(st);
    t.shards.push_back(std::move(st));
  }
  return t;
}

void AsyncScoringRuntime::require_quiescent(const char* what) const {
  check(!started_.load(std::memory_order_acquire) || closed(),
        std::string(what) + " races with the scoring threads: call it before start() or after "
                            "close()");
}

void AsyncScoringRuntime::require_started_shards(const char* what) const {
  check(started_.load(std::memory_order_acquire),
        std::string(what) + " before start(): the shard engines are built by start()");
}

bool AsyncScoringRuntime::in_alarm(Index stream) const {
  require_quiescent("in_alarm()");
  ingest_at(stream);  // global bounds check, global wording
  const Shard& shard = shards_[static_cast<std::size_t>(partition_.shard_of(stream))];
  if (!shard.engine) return false;  // never started: empty stream state
  return shard.engine->in_alarm(partition_.local_of(stream));
}

const std::vector<core::AnomalyEvent>& AsyncScoringRuntime::events(Index stream) const {
  require_quiescent("events()");
  ingest_at(stream);  // global bounds check, global wording
  const Shard& shard = shards_[static_cast<std::size_t>(partition_.shard_of(stream))];
  if (!shard.engine) {
    static const std::vector<core::AnomalyEvent> kNoEvents;
    return kNoEvents;  // never started: empty stream state
  }
  return shard.engine->events(partition_.local_of(stream));
}

Index AsyncScoringRuntime::samples_seen(Index stream) const {
  require_quiescent("samples_seen()");
  ingest_at(stream);  // global bounds check, global wording
  const Shard& shard = shards_[static_cast<std::size_t>(partition_.shard_of(stream))];
  if (!shard.engine) return 0;  // never started: empty stream state
  return shard.engine->samples_seen(partition_.local_of(stream));
}

const ScoringEngine& AsyncScoringRuntime::shard_engine(Index shard) const {
  require_quiescent("shard_engine()");
  require_started_shards("shard_engine()");
  check(shard >= 0 && shard < n_shards(),
        "shard id " + std::to_string(shard) + " out of range [0, " +
            std::to_string(n_shards()) + ")");
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  check(sh.engine != nullptr, "shard " + std::to_string(shard) + " owns no streams");
  return *sh.engine;
}

}  // namespace varade::serve
