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
  const Index row = checked_mul(channels_, window_, "per-stream context row");
  const Index slab = checked_mul(s + 1, row, "context slab");
  ctx_slab_.resize(static_cast<std::size_t>(slab), 0.0F);
  ring_start_.push_back(0);
  ring_fill_.push_back(0);
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

void ScoringEngine::score_chunks(const std::vector<Tensor>& contexts,
                                 const std::vector<Tensor>& observed,
                                 const std::vector<Index>& ready) {
  Index row_offset = 0;
  std::vector<float> scores;
  for (std::size_t ci = 0; ci < contexts.size(); ++ci) {
    const Index rows = contexts[ci].dim(0);
    scores.resize(static_cast<std::size_t>(rows));
    detector_->score_batch(contexts[ci], observed[ci], scores.data());
    for (Index r = 0; r < rows; ++r) {
      score_[static_cast<std::size_t>(ready[static_cast<std::size_t>(row_offset + r)])] =
          scores[static_cast<std::size_t>(r)];
    }
    ++forward_calls_;
    row_offset += rows;
  }
}

std::vector<StreamScore> ScoringEngine::step() {
  check(calibrated_, "ScoringEngine::step before calibrate()/set_threshold()");
  const std::int64_t t_step = obs::tick();
  const Index window = window_;
  const Index channels = channels_;
  const Index row_floats = channels * window;  // checked at add_stream time

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
    // slab and flag streams whose ring already holds a full context. The
    // sampled enqueue timestamps ride along so push->score latency can be
    // recorded when the round completes.
    round_raw_.resize(static_cast<std::size_t>(
        checked_mul(n_active, channels, "round staging slab")));
    round_norm_.resize(round_raw_.size());
    round_ready_.resize(static_cast<std::size_t>(n_active));
    if constexpr (obs::kEnabled) round_ts_.resize(static_cast<std::size_t>(n_active));
    for (Index i = 0; i < n_active; ++i) {
      const auto s = static_cast<std::size_t>(active_[static_cast<std::size_t>(i)]);
      const Index offset = pending_[s][static_cast<std::size_t>(pending_head_[s])];
      const float* src = pending_arena_.data() + offset * channels;
      std::copy(src, src + channels, round_raw_.data() + i * channels);
      round_ready_[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(ring_fill_[s] == window);
      score_[s] = -1.0F;
      edge_[s] = core::AlarmEdge::None;
      if constexpr (obs::kEnabled)
        round_ts_[static_cast<std::size_t>(i)] = pending_ts_[static_cast<std::size_t>(offset)];
    }
    const std::int64_t t_norm = obs::tick();
    obs::record_span(phase_hist_[0], t_stage, t_norm);

    // Phase 1b: vectorised normalisation of the whole round in stream-major
    // order — the same arithmetic per element as transform_sample, so
    // results are bit-identical.
    normalizer_->transform_rows(round_raw_.data(), n_active, round_norm_.data());
    obs::record_span(phase_hist_[1], t_norm, obs::tick());

    ready_.clear();
    ready_pos_.clear();
    for (Index i = 0; i < n_active; ++i) {
      if (round_ready_[static_cast<std::size_t>(i)] != 0U) {
        ready_.push_back(active_[static_cast<std::size_t>(i)]);
        ready_pos_.push_back(i);
      }
    }

    if (!ready_.empty()) {
      // Phase 2a: unroll slab context rings and current observations
      // straight into per-chunk [rows, C, T] / [rows, C] batches.
      const std::int64_t t_gather = obs::tick();
      const auto n_ready = static_cast<Index>(ready_.size());
      std::vector<Tensor> contexts;
      std::vector<Tensor> observations;
      for (Index b = 0; b < n_ready; b += config_.max_batch) {
        const Index rows = std::min(config_.max_batch, n_ready - b);
        contexts.emplace_back(Shape{rows, channels, window});
        observations.emplace_back(Shape{rows, channels});
      }
      for (Index i = 0; i < n_ready; ++i) {
        const auto s = static_cast<std::size_t>(ready_[static_cast<std::size_t>(i)]);
        const auto chunk = static_cast<std::size_t>(i / config_.max_batch);
        const Index row = i % config_.max_batch;
        core::write_context(ctx_slab_.data() + static_cast<Index>(s) * row_floats, channels,
                            window, ring_start_[s], contexts[chunk].data() + row * row_floats);
        const float* norm = round_norm_.data() +
                            ready_pos_[static_cast<std::size_t>(i)] * channels;
        std::copy(norm, norm + channels, observations[chunk].data() + row * channels);
      }

      const std::int64_t t_score = obs::tick();
      obs::record_span(phase_hist_[2], t_gather, t_score);

      // Phase 2b: batched scoring, chunked by max_batch.
      score_chunks(contexts, observations, ready_);
      obs::record_span(phase_hist_[3], t_score, obs::tick());
    }

    // Phase 3: alarm update and ring advance.
    const std::int64_t t_alarm = obs::tick();
    for (Index i = 0; i < n_active; ++i) {
      const auto s = static_cast<std::size_t>(active_[static_cast<std::size_t>(i)]);
      ++samples_seen_[s];
      if (round_ready_[static_cast<std::size_t>(i)] != 0U)
        edge_[s] = alarms_[s].update(score_[s], threshold_, samples_seen_[s] - 1);
      // Ring advance: while filling, the write position is ring_fill_ (start
      // stays 0); once warm, the oldest slot is overwritten and start moves.
      Index pos = ring_start_[s] + ring_fill_[s];
      if (pos >= window) pos -= window;
      if (ring_fill_[s] == window)
        ring_start_[s] = (ring_start_[s] + 1 == window) ? 0 : ring_start_[s] + 1;
      else
        ++ring_fill_[s];
      float* slab_row = ctx_slab_.data() + static_cast<Index>(s) * row_floats;
      const float* norm = round_norm_.data() + i * channels;
      for (Index ch = 0; ch < channels; ++ch) slab_row[ch * window + pos] = norm[ch];
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
