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

Index ScoringEngine::add_stream() {
  const Index s = n_streams();
  const Index slab = checked_mul(s + 1, state_floats_, "stream state slab");
  state_slab_.resize(static_cast<std::size_t>(slab), 0.0F);
  samples_seen_.push_back(0);
  score_.push_back(-1.0F);
  edge_.push_back(core::AlarmEdge::None);
  alarms_.emplace_back(config_.monitor);
  pending_.emplace_back();
  pending_head_.push_back(0);
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

void ScoringEngine::score_warm(Index n_warm) {
  round_scores_.resize(static_cast<std::size_t>(n_warm));
  for (Index b = 0; b < n_warm; b += config_.max_batch) {
    const core::StreamBatch batch{round_states_.data() + b, round_seen_.data() + b,
                                  round_norm_.data() + b * channels_,
                                  std::min(config_.max_batch, n_warm - b), channels_};
    detector_->score_streams(batch, scratch_, round_scores_.data() + b);
    ++forward_calls_;
  }
}

void ScoringEngine::advance_round(Index n_active) {
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
  const bool had_work = !active_.empty();

  while (!active_.empty()) {
    const auto n_active = static_cast<Index>(active_.size());
    const std::int64_t t_stage = obs::tick();

    // Phase 1a: lay out the round slab — warm streams (their state already
    // covers a full context) first, cold ones after, each group ascending —
    // and stage each row's raw sample from the arena, its state slot and
    // fold count. The sampled enqueue timestamps ride along so push->score
    // latency can be recorded when the round completes.
    round_streams_.clear();
    for (Index s : active_)
      if (samples_seen_[static_cast<std::size_t>(s)] >= window_) round_streams_.push_back(s);
    const auto n_warm = static_cast<Index>(round_streams_.size());
    for (Index s : active_)
      if (samples_seen_[static_cast<std::size_t>(s)] < window_) round_streams_.push_back(s);
    round_raw_.resize(static_cast<std::size_t>(
        checked_mul(n_active, channels, "round staging slab")));
    round_norm_.resize(round_raw_.size());
    round_states_.resize(static_cast<std::size_t>(n_active));
    round_seen_.resize(static_cast<std::size_t>(n_active));
    if constexpr (obs::kEnabled) round_ts_.resize(static_cast<std::size_t>(n_active));
    for (Index i = 0; i < n_active; ++i) {
      const Index stream = round_streams_[static_cast<std::size_t>(i)];
      const auto s = static_cast<std::size_t>(stream);
      const auto si = static_cast<std::size_t>(i);
      const Index offset = pending_[s][static_cast<std::size_t>(pending_head_[s])];
      const float* src = pending_arena_.data() + offset * channels;
      std::copy(src, src + channels, round_raw_.data() + i * channels);
      round_states_[si] = state_slab_.data() + stream * state_floats_;
      round_seen_[si] = samples_seen_[s];
      if constexpr (obs::kEnabled) round_ts_[si] = pending_ts_[static_cast<std::size_t>(offset)];
    }
    const std::int64_t t_norm = obs::tick();
    obs::record_span(phase_hist_[0], t_stage, t_norm);

    // Phase 1b: vectorised normalisation of the whole round slab.
    normalizer_->transform_rows(round_raw_.data(), n_active, round_norm_.data());
    const std::int64_t t_normed = obs::tick();
    obs::record_span(phase_hist_[1], t_norm, t_normed);

    // Phase 2: score the warm prefix from its states, before this round's
    // sample is folded in (a sample is scored against the samples before it).
    std::int64_t t_gather = t_normed;
    if (n_warm > 0) {
      score_warm(n_warm);
      t_gather = obs::tick();
      obs::record_span(phase_hist_[3], t_normed, t_gather);
    }

    // Phase 3: fold every staged sample into its state.
    advance_round(n_active);
    const std::int64_t t_alarm = obs::tick();
    obs::record_span(phase_hist_[2], t_gather, t_alarm);

    // Phase 4: alarm update; cold rows report -1 and make no transition.
    for (Index i = 0; i < n_active; ++i) {
      const auto s = static_cast<std::size_t>(round_streams_[static_cast<std::size_t>(i)]);
      ++samples_seen_[s];
      ++pending_head_[s];
      if (i < n_warm) {
        score_[s] = round_scores_[static_cast<std::size_t>(i)];
        edge_[s] = alarms_[s].update(score_[s], threshold_, samples_seen_[s] - 1);
      } else {
        score_[s] = -1.0F;
        edge_[s] = core::AlarmEdge::None;
      }
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

    // Emit in ascending stream id, and carry the streams with more buffered
    // work into the next round. A stream whose last sample was just consumed
    // resets its offset queue (capacity retained).
    next_active_.clear();
    for (Index stream : active_) {
      const auto s = static_cast<std::size_t>(stream);
      out.push_back({stream, samples_seen_[s] - 1, score_[s], edge_[s]});
      if (pending_head_[s] < static_cast<Index>(pending_[s].size())) {
        next_active_.push_back(stream);
      } else {
        pending_[s].clear();
        pending_head_[s] = 0;
      }
    }
    std::swap(active_, next_active_);
  }

  // All buffered work consumed: reset the shared arena, so push() restarts
  // from a compact staging area.
  pending_arena_.clear();
  if constexpr (obs::kEnabled) {
    pending_ts_.clear();
    if (had_work) step_hist_.record(obs::now_ns() - t_step);
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
