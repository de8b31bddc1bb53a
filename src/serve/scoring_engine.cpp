#include "varade/serve/scoring_engine.hpp"

#include <algorithm>
#include <string>

#include "varade/serve/checked.hpp"

namespace varade::serve {

namespace detail {

std::string stream_range_message(Index id, Index n_streams) {
  return "stream id " + std::to_string(id) + " out of range [0, " + std::to_string(n_streams) +
         ")";
}

std::string channel_mismatch_message(Index expected, Index got) {
  return "sample channel count mismatch: expected " + std::to_string(expected) +
         " channels, got " + std::to_string(got);
}

}  // namespace detail

using detail::channel_mismatch_message;
using detail::checked_mul;
using detail::stream_range_message;

ScoringEngine::ScoringEngine(core::AnomalyDetector& detector,
                             const data::MinMaxNormalizer& normalizer,
                             ScoringEngineConfig config)
    : detector_(&detector),
      normalizer_(&normalizer),
      config_(config) {
  check(detector.fitted(), "ScoringEngine requires a fitted detector");
  check(normalizer.fitted(), "ScoringEngine requires a fitted normalizer");
  check(config_.max_batch >= 1, "max_batch must be >= 1");
  core::validate(config_.monitor);
  window_ = detector.context_window();
  channels_ = normalizer.n_channels();
  check(window_ >= 1, "ScoringEngine requires a detector with a context window");
  state_floats_ = detector.stream_state_floats(channels_);
  check(state_floats_ >= 1, "ScoringEngine requires a detector with per-stream state");
}

Index ScoringEngine::add_stream() { return add_stream(n_streams()); }

Index ScoringEngine::add_stream(Index global_id) {
  if (global_id < 0)
    throw Error("stream id " + std::to_string(global_id) +
                " out of range: global stream ids must be >= 0");
  // Both production callers (the dense overload and the sharded runtime's
  // subset views) register strictly increasing ids, so the duplicate check
  // is O(1) on the hot path and a scan only for out-of-order registration.
  if (global_id <= max_global_id_ &&
      std::find(global_ids_.begin(), global_ids_.end(), global_id) != global_ids_.end())
    throw Error("stream id " + std::to_string(global_id) + " already registered");

  const Index s = n_streams();
  const Index slab = checked_mul(s + 1, state_floats_, "stream state slab");
  state_slab_.resize(static_cast<std::size_t>(slab), 0.0F);
  samples_seen_.push_back(0);
  global_ids_.push_back(global_id);
  score_.push_back(-1.0F);
  edge_.push_back(core::AlarmEdge::None);
  alarms_.emplace_back(config_.monitor);
  pending_.emplace_back();
  pending_head_.push_back(0);
  max_global_id_ = std::max(max_global_id_, global_id);
  return s;
}

Index ScoringEngine::n_channels() const { return channels_; }

Index ScoringEngine::add_streams(Index n) {
  check(n >= 1, "add_streams needs n >= 1");
  const Index first = n_streams();
  for (Index i = 0; i < n; ++i) add_stream();
  return first;
}

void ScoringEngine::calibrate(const data::MultivariateSeries& train) {
  threshold_ = core::calibrate_threshold(*detector_, train, config_.monitor);
  calibrated_ = true;
}

void ScoringEngine::set_threshold(float threshold) {
  threshold_ = threshold;
  calibrated_ = true;
}

void ScoringEngine::require_stream(Index id) const {
  if (id < 0 || id >= n_streams()) throw Error(stream_range_message(id, n_streams()));
}

Index ScoringEngine::global_id(Index stream) const {
  require_stream(stream);
  return global_ids_[static_cast<std::size_t>(stream)];
}

void ScoringEngine::push(Index stream, const float* raw_sample, Index count,
                         std::int64_t enqueue_ns) {
  require_stream(stream);
  if (count != channels_) throw Error(channel_mismatch_message(channels_, count));
  const auto s = static_cast<std::size_t>(stream);
  const Index offset = static_cast<Index>(pending_arena_.size()) / channels_;
  pending_arena_.insert(pending_arena_.end(), raw_sample, raw_sample + channels_);
  pending_[s].push_back(offset);
  // The timestamp lane stays index-parallel to the arena, so even unsampled
  // pushes append their 0 — but only when telemetry exists at all.
  if constexpr (obs::kEnabled) pending_ts_.push_back(enqueue_ns);
}

void ScoringEngine::score_ready() {
  const auto n_ready = static_cast<Index>(ready_.size());
  const Index channels = channels_;
  for (Index b = 0; b < n_ready; b += config_.max_batch) {
    const Index rows = std::min(config_.max_batch, n_ready - b);
    chunk_states_.resize(static_cast<std::size_t>(rows));
    chunk_seen_.resize(static_cast<std::size_t>(rows));
    chunk_obs_.resize(static_cast<std::size_t>(rows * channels));
    chunk_scores_.resize(static_cast<std::size_t>(rows));
    for (Index r = 0; r < rows; ++r) {
      const auto i = static_cast<std::size_t>(ready_[static_cast<std::size_t>(b + r)]);
      chunk_states_[static_cast<std::size_t>(r)] = round_states_[i];
      chunk_seen_[static_cast<std::size_t>(r)] = round_seen_[i];
      const float* norm = round_norm_.data() + static_cast<Index>(i) * channels;
      std::copy(norm, norm + channels, chunk_obs_.data() + r * channels);
    }
    const core::StreamBatch batch{chunk_states_.data(), chunk_seen_.data(), chunk_obs_.data(),
                                  rows, channels};
    detector_->score_streams(batch, scratch_, chunk_scores_.data());
    ++forward_calls_;
    for (Index r = 0; r < rows; ++r) {
      const Index i = ready_[static_cast<std::size_t>(b + r)];
      score_[static_cast<std::size_t>(active_[static_cast<std::size_t>(i)])] =
          chunk_scores_[static_cast<std::size_t>(r)];
    }
  }
}

void ScoringEngine::advance_active() {
  // The round slabs are already stream-major over the active set, so every
  // chunk is a contiguous slice of them.
  const auto n_active = static_cast<Index>(active_.size());
  for (Index b = 0; b < n_active; b += config_.max_batch) {
    const core::StreamBatch batch{round_states_.data() + b, round_seen_.data() + b,
                                  round_norm_.data() + b * channels_,
                                  std::min(config_.max_batch, n_active - b), channels_};
    detector_->advance_streams(batch, scratch_);
  }
}

std::vector<StreamScore> ScoringEngine::step() {
  check(calibrated_, "ScoringEngine::step before calibrate()/set_threshold()");
  const std::int64_t t_step = obs::tick();
  const Index channels = channels_;

  std::vector<StreamScore> out;

  // Round 0's active set is every stream with buffered work; later rounds
  // filter it in place, so the full scan happens once per step().
  active_.clear();
  for (Index s = 0; s < n_streams(); ++s)
    if (pending_head_[static_cast<std::size_t>(s)] <
        static_cast<Index>(pending_[static_cast<std::size_t>(s)].size()))
      active_.push_back(s);
  // Streams drained this step(): their offset queues are reset at the end,
  // together with the shared arena.
  const std::vector<Index> drained = active_;

  while (!active_.empty()) {
    const auto n_active = static_cast<Index>(active_.size());
    const std::int64_t t_stage = obs::tick();

    // Phase 1a: stage this round's raw sample from the arena into the round
    // slab and note each stream's state slot and fold count. The sampled
    // enqueue timestamps ride along so push->score latency can be recorded
    // when the round completes.
    round_raw_.resize(static_cast<std::size_t>(
        checked_mul(n_active, channels, "round staging slab")));
    round_norm_.resize(round_raw_.size());
    round_states_.resize(static_cast<std::size_t>(n_active));
    round_seen_.resize(static_cast<std::size_t>(n_active));
    if constexpr (obs::kEnabled) round_ts_.resize(static_cast<std::size_t>(n_active));
    for (Index i = 0; i < n_active; ++i) {
      const Index stream = active_[static_cast<std::size_t>(i)];
      const auto s = static_cast<std::size_t>(stream);
      const auto si = static_cast<std::size_t>(i);
      const Index offset = pending_[s][static_cast<std::size_t>(pending_head_[s])];
      const float* src = pending_arena_.data() + offset * channels;
      std::copy(src, src + channels, round_raw_.data() + i * channels);
      round_states_[si] = state_slab_.data() + stream * state_floats_;
      round_seen_[si] = samples_seen_[s];
      score_[s] = -1.0F;
      edge_[s] = core::AlarmEdge::None;
      if constexpr (obs::kEnabled) round_ts_[si] = pending_ts_[static_cast<std::size_t>(offset)];
    }
    const std::int64_t t_norm = obs::tick();
    obs::record_span(phase_hist_[0], t_stage, t_norm);

    // Phase 1b: vectorised normalisation of the whole round in stream-major
    // order — the same arithmetic per element as transform_sample, so
    // results are bit-identical.
    normalizer_->transform_rows(round_raw_.data(), n_active, round_norm_.data());
    const std::int64_t t_normed = obs::tick();
    obs::record_span(phase_hist_[1], t_norm, t_normed);

    // Warm streams: their state already covers a full context.
    ready_.clear();
    for (Index i = 0; i < n_active; ++i)
      if (round_seen_[static_cast<std::size_t>(i)] >= window_) ready_.push_back(i);

    // Phase 2: score the warm streams from their states, before this
    // round's sample is folded in (a sample is scored against the samples
    // before it).
    std::int64_t t_gather = t_normed;
    if (!ready_.empty()) {
      score_ready();
      t_gather = obs::tick();
      obs::record_span(phase_hist_[3], t_normed, t_gather);
    }

    // Phase 3: fold every active stream's sample into its state.
    advance_active();
    const std::int64_t t_alarm = obs::tick();
    obs::record_span(phase_hist_[2], t_gather, t_alarm);

    // Phase 4: alarm update.
    for (Index i = 0; i < n_active; ++i) {
      const auto s = static_cast<std::size_t>(active_[static_cast<std::size_t>(i)]);
      ++samples_seen_[s];
      if (round_seen_[static_cast<std::size_t>(i)] >= window_)
        edge_[s] = alarms_[s].update(score_[s], threshold_, samples_seen_[s] - 1);
      ++pending_head_[s];
    }
    if constexpr (obs::kEnabled) {
      const std::int64_t t_done = obs::now_ns();
      phase_hist_[4].record(t_done - t_alarm);
      // Sampled push->score latency: every staged sample that carried an
      // enqueue timestamp completed its pipeline this round.
      for (Index i = 0; i < n_active; ++i) {
        const std::int64_t ts = round_ts_[static_cast<std::size_t>(i)];
        if (ts > 0) push_to_score_hist_.record(t_done - ts);
      }
    }

    for (Index s : active_) {
      const auto si = static_cast<std::size_t>(s);
      out.push_back({global_ids_[si], samples_seen_[si] - 1, score_[si], edge_[si]});
    }

    next_active_.clear();
    for (Index s : active_) {
      const auto si = static_cast<std::size_t>(s);
      if (pending_head_[si] < static_cast<Index>(pending_[si].size())) next_active_.push_back(s);
    }
    std::swap(active_, next_active_);
  }

  // All buffered work consumed: reset the offset queues (capacity retained)
  // and the shared arena, so push() restarts from a compact staging area.
  for (Index s : drained) {
    const auto si = static_cast<std::size_t>(s);
    pending_[si].clear();
    pending_head_[si] = 0;
  }
  pending_arena_.clear();
  if constexpr (obs::kEnabled) {
    pending_ts_.clear();
    if (!drained.empty()) step_hist_.record(obs::now_ns() - t_step);
  }
  return out;
}

void EngineTelemetry::merge(const EngineTelemetry& other) {
  for (int p = 0; p < kStepPhases; ++p) phases[p].merge(other.phases[p]);
  step.merge(other.step);
  push_to_score.merge(other.push_to_score);
}

EngineTelemetry ScoringEngine::telemetry() const {
  EngineTelemetry t;
  for (int p = 0; p < kStepPhases; ++p) t.phases[p] = phase_hist_[p].snapshot();
  t.step = step_hist_.snapshot();
  t.push_to_score = push_to_score_hist_.snapshot();
  return t;
}

bool ScoringEngine::in_alarm(Index stream) const {
  require_stream(stream);
  return alarms_[static_cast<std::size_t>(stream)].in_alarm();
}

const std::vector<core::AnomalyEvent>& ScoringEngine::events(Index stream) const {
  require_stream(stream);
  return alarms_[static_cast<std::size_t>(stream)].events();
}

Index ScoringEngine::samples_seen(Index stream) const {
  require_stream(stream);
  return samples_seen_[static_cast<std::size_t>(stream)];
}

}  // namespace varade::serve
