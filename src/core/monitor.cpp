#include "varade/core/monitor.hpp"

#include <algorithm>
#include <cstring>

namespace varade::core {

void validate(const MonitorConfig& config) {
  check(config.threshold_quantile > 0.0 && config.threshold_quantile < 1.0,
        "threshold quantile must be in (0, 1)");
  check(config.debounce_samples >= 1, "debounce must be >= 1");
  check(config.holdoff_samples >= 0, "holdoff must be >= 0");
  check(config.calibration_stride >= 1, "calibration stride must be >= 1");
}

void write_context(const std::deque<std::vector<float>>& ring, Index channels, Index window,
                   float* dst) {
  for (Index t = 0; t < window; ++t) {
    const std::vector<float>& sample = ring[static_cast<std::size_t>(t)];
    for (Index ch = 0; ch < channels; ++ch)
      dst[ch * window + t] = sample[static_cast<std::size_t>(ch)];
  }
}

void write_context(const float* ring_row, Index channels, Index window, Index oldest, float* dst) {
  if (oldest == 0) {
    std::memcpy(dst, ring_row, static_cast<std::size_t>(channels * window) * sizeof(float));
    return;
  }
  const Index head = window - oldest;
  for (Index ch = 0; ch < channels; ++ch) {
    const float* src = ring_row + ch * window;
    float* out = dst + ch * window;
    std::memcpy(out, src + oldest, static_cast<std::size_t>(head) * sizeof(float));
    std::memcpy(out + head, src, static_cast<std::size_t>(oldest) * sizeof(float));
  }
}

AlarmEdge AlarmTracker::update(float score, float threshold, Index sample_index) {
  // Alarm logic: debounce, then hold events open across brief dips.
  const bool over = score > threshold;
  if (over) {
    ++consecutive_over_;
    since_last_over_ = 0;
  } else {
    consecutive_over_ = 0;
    ++since_last_over_;
  }

  if (!in_alarm_ && consecutive_over_ >= config_.debounce_samples) {
    in_alarm_ = true;
    AnomalyEvent ev;
    ev.onset_sample = sample_index;
    ev.last_sample = sample_index;
    ev.peak_score = score;
    events_.push_back(ev);
    return AlarmEdge::Raised;
  }
  if (in_alarm_) {
    if (over) {
      events_.back().last_sample = sample_index;
      events_.back().peak_score = std::max(events_.back().peak_score, score);
      return AlarmEdge::Extended;
    }
    if (since_last_over_ > config_.holdoff_samples) in_alarm_ = false;
  }
  return AlarmEdge::None;
}

float calibrate_threshold(AnomalyDetector& detector, const data::MultivariateSeries& train,
                          const MonitorConfig& config) {
  const Index window = detector.context_window();
  check(train.length() > window, "calibration series shorter than the context window");
  // Batched scoring over the strided calibration positions: a row's score
  // does not depend on the batch size per the detector contract, so the
  // threshold equals the one a sample-by-sample monitor would compute.
  const SeriesScores run = detector.score_series(train, config.calibration_stride);
  std::vector<float> scores = run.scores;
  check(!scores.empty(), "no calibration scores produced");
  std::sort(scores.begin(), scores.end());
  const auto idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(scores.size()) - 1.0,
                       config.threshold_quantile * static_cast<double>(scores.size())));
  return scores[idx];
}

OnlineMonitor::OnlineMonitor(AnomalyDetector& detector, const data::MinMaxNormalizer& normalizer,
                             MonitorConfig config)
    : detector_(&detector), normalizer_(&normalizer), config_(config), tracker_(config) {
  check(detector.fitted(), "OnlineMonitor requires a fitted detector");
  check(normalizer.fitted(), "OnlineMonitor requires a fitted normalizer");
  validate(config_);
  scratch_.resize(static_cast<std::size_t>(normalizer.n_channels()));
}

void OnlineMonitor::calibrate(const data::MultivariateSeries& train) {
  threshold_ = calibrate_threshold(*detector_, train, config_);
  calibrated_ = true;
}

void OnlineMonitor::set_threshold(float threshold) {
  threshold_ = threshold;
  calibrated_ = true;
}

float OnlineMonitor::push(const float* raw_sample) {
  check(calibrated_, "OnlineMonitor::push before calibrate()/set_threshold()");
  const Index window = detector_->context_window();
  ++samples_seen_;

  // Normalise into the scratch row.
  normalizer_->transform_sample(raw_sample, scratch_.data());

  // The detector scores the current observation against the *previous*
  // window samples, so score before pushing the sample into the ring.
  float score = -1.0F;
  if (static_cast<Index>(ring_.size()) == window) {
    // A 1-row score_batch call: the same contract every batched frontend
    // scores through.
    const Index channels = normalizer_->n_channels();
    Tensor context({1, channels, window});
    write_context(ring_, channels, window, context.data());
    Tensor observed({1, channels});
    std::copy(scratch_.begin(), scratch_.end(), observed.data());
    detector_->score_batch(context, observed, &score);

    if (tracker_.update(score, threshold_, samples_seen_ - 1) == AlarmEdge::Raised && callback_)
      callback_(tracker_.events().back());
  }

  ring_.push_back(scratch_);
  if (static_cast<Index>(ring_.size()) > window) ring_.pop_front();
  return score;
}

float OnlineMonitor::push(const std::vector<float>& raw_sample) {
  check(static_cast<Index>(raw_sample.size()) == normalizer_->n_channels(),
        "sample channel count mismatch");
  return push(raw_sample.data());
}

}  // namespace varade::core
