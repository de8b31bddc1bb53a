// Online anomaly monitor: the deployment loop of the paper (section 4.3) and
// its future-work direction ("integrate VARADE within the manufacturing
// control loop, enabling preventive anomaly detection to activate high-level
// reconfiguration strategies") as a reusable component.
//
// The monitor wraps a fitted detector with:
//  - a normalising ring buffer fed one raw sample at a time,
//  - a threshold calibrated on training scores (quantile-based),
//  - alarm debouncing (consecutive exceedances before raising) and a
//    hold-off that merges bursts into one event,
//  - an event log with onset time and peak score for downstream
//    reconfiguration logic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "varade/core/detector.hpp"
#include "varade/data/normalize.hpp"

namespace varade::core {

struct MonitorConfig {
  /// Quantile of training scores used as the alarm threshold.
  double threshold_quantile = 0.995;
  /// Consecutive above-threshold scores required to raise an alarm.
  int debounce_samples = 2;
  /// Samples after an alarm during which new exceedances extend (not
  /// re-raise) the current event.
  int holdoff_samples = 25;
  /// Stride for threshold calibration over the training series.
  Index calibration_stride = 4;
};

/// Throws on out-of-range fields; shared by every monitor frontend.
void validate(const MonitorConfig& config);

/// One detected anomaly event.
struct AnomalyEvent {
  Index onset_sample = 0;   // stream index where the alarm was raised
  Index last_sample = 0;    // last sample that extended the event
  float peak_score = 0.0F;
};

/// What one AlarmTracker::update did to the event log.
enum class AlarmEdge : std::uint8_t {
  None,      ///< no event changed (quiet, below debounce, dip, or close)
  Raised,    ///< a new event opened on this sample
  Extended,  ///< the open event's last_sample (and maybe peak_score) moved
};

/// The debounce/hold-off alarm state machine, factored out of OnlineMonitor
/// so other frontends (the serve::ScoringEngine multiplexing many streams)
/// raise bit-identical events from the same score sequence. It is the only
/// alarm state machine in the serving stack: downstream consumers (the
/// net::Server's ALARM frames) read the AlarmEdge it returns instead of
/// re-running it.
class AlarmTracker {
 public:
  AlarmTracker() = default;
  explicit AlarmTracker(const MonitorConfig& config) : config_(config) {}

  /// Updates the alarm state with the score of stream sample `sample_index`
  /// (0-based position in the stream) and reports the event-log transition:
  /// Raised opens events().back() at this sample; Extended sets its
  /// last_sample to this sample and folds the score into its peak_score
  /// with std::max.
  AlarmEdge update(float score, float threshold, Index sample_index);

  bool in_alarm() const { return in_alarm_; }
  const std::vector<AnomalyEvent>& events() const { return events_; }

 private:
  MonitorConfig config_;
  int consecutive_over_ = 0;
  int since_last_over_ = 0;
  bool in_alarm_ = false;
  std::vector<AnomalyEvent> events_;
};

/// Quantile-based alarm threshold over strided training scores — the shared
/// calibration rule of OnlineMonitor and serve::ScoringEngine.
float calibrate_threshold(AnomalyDetector& detector, const data::MultivariateSeries& train,
                          const MonitorConfig& config);

/// Writes a normalising ring buffer (oldest sample first) as a channels-major
/// [C, T] context into `dst` — the one place that fixes the context memory
/// layout for both OnlineMonitor and the default per-stream state of
/// AnomalyDetector::score_streams.
void write_context(const std::deque<std::vector<float>>& ring, Index channels, Index window,
                   float* dst);

/// Flat-slab overload: the ring is a contiguous channels-major [C, T] row
/// (the default per-stream state a serving layer keeps per stream) whose
/// oldest sample lives at time index `oldest`. Unrolls the ring into `dst`
/// oldest-first with the same [C, T] layout as the deque overload — two
/// memcpys per channel instead of a per-sample scatter.
void write_context(const float* ring_row, Index channels, Index window, Index oldest, float* dst);

class OnlineMonitor {
 public:
  /// The detector must already be fitted; the normalizer must carry the
  /// training statistics. Both are borrowed and must outlive the monitor.
  OnlineMonitor(AnomalyDetector& detector, const data::MinMaxNormalizer& normalizer,
                MonitorConfig config = {});

  /// Calibrates the alarm threshold on a normalised training series.
  void calibrate(const data::MultivariateSeries& train);

  /// Sets the threshold directly (alternative to calibrate()).
  void set_threshold(float threshold);
  float threshold() const { return threshold_; }
  bool calibrated() const { return calibrated_; }

  /// Feeds one raw (unnormalised) sample; returns the anomaly score once the
  /// context is full, or a negative value while warming up. Alarm state and
  /// the event log update internally.
  float push(const float* raw_sample);
  float push(const std::vector<float>& raw_sample);

  /// True while an anomaly event is open.
  bool in_alarm() const { return tracker_.in_alarm(); }

  /// Completed + open events so far.
  const std::vector<AnomalyEvent>& events() const { return tracker_.events(); }

  /// Number of samples consumed.
  Index samples_seen() const { return samples_seen_; }

  /// Optional callback invoked when a new event is raised (e.g. to trigger a
  /// reconfiguration strategy).
  void on_event(std::function<void(const AnomalyEvent&)> callback) {
    callback_ = std::move(callback);
  }

 private:
  AnomalyDetector* detector_;
  const data::MinMaxNormalizer* normalizer_;
  MonitorConfig config_;

  float threshold_ = 0.0F;
  bool calibrated_ = false;

  std::deque<std::vector<float>> ring_;
  std::vector<float> scratch_;
  Index samples_seen_ = 0;

  AlarmTracker tracker_;
  std::function<void(const AnomalyEvent&)> callback_;
};

}  // namespace varade::core
