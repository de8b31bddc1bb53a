// Tests for the online monitor (alarm calibration, debouncing, event log)
// and VARADE detector persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>

#include "varade/core/baselines/knn.hpp"
#include "varade/core/monitor.hpp"
#include "varade/core/varade.hpp"

namespace varade::core {
namespace {

data::MultivariateSeries make_sine(Index length, bool planted, std::uint64_t seed) {
  Rng rng(seed);
  data::MultivariateSeries s(3);
  std::vector<float> row(3);
  for (Index t = 0; t < length; ++t) {
    const bool anomalous = planted && (t % 250) >= 200 && (t % 250) < 215;
    for (Index c = 0; c < 3; ++c) {
      row[static_cast<std::size_t>(c)] =
          std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c)) +
          rng.normal(0.0F, anomalous ? 0.9F : 0.03F);
    }
    s.append(row, anomalous ? 1 : 0);
  }
  return s;
}

struct MonitorRig {
  data::MultivariateSeries train_raw = make_sine(1000, false, 1);
  data::MinMaxNormalizer normalizer;
  KnnDetector detector{{.knn = {.k = 3}, .max_reference_points = 400}};
  data::MultivariateSeries train;

  MonitorRig() {
    normalizer.fit(train_raw);
    train = normalizer.transform(train_raw);
    detector.fit(train);
  }
};

TEST(OnlineMonitor, RequiresFittedComponents) {
  MonitorRig rig;
  KnnDetector unfitted;
  EXPECT_THROW(OnlineMonitor(unfitted, rig.normalizer), Error);
  data::MinMaxNormalizer blank;
  EXPECT_THROW(OnlineMonitor(rig.detector, blank), Error);
  EXPECT_THROW(OnlineMonitor(rig.detector, rig.normalizer, {.threshold_quantile = 1.5}), Error);
  EXPECT_THROW(OnlineMonitor(rig.detector, rig.normalizer, {.debounce_samples = 0}), Error);
}

TEST(OnlineMonitor, PushBeforeCalibrationThrows) {
  MonitorRig rig;
  OnlineMonitor monitor(rig.detector, rig.normalizer);
  std::vector<float> sample(3, 0.0F);
  EXPECT_THROW(monitor.push(sample), Error);
}

TEST(OnlineMonitor, CalibrationSetsFiniteThreshold) {
  MonitorRig rig;
  OnlineMonitor monitor(rig.detector, rig.normalizer);
  monitor.calibrate(rig.train);
  EXPECT_TRUE(monitor.calibrated());
  EXPECT_TRUE(std::isfinite(monitor.threshold()));
  EXPECT_GT(monitor.threshold(), 0.0F);
}

TEST(OnlineMonitor, QuietStreamRaisesFewAlarms) {
  MonitorRig rig;
  OnlineMonitor monitor(rig.detector, rig.normalizer, {.threshold_quantile = 0.999});
  monitor.calibrate(rig.train);
  const auto quiet = make_sine(800, false, 2);
  for (Index t = 0; t < quiet.length(); ++t) monitor.push(quiet.sample(t));
  EXPECT_LE(monitor.events().size(), 2U);  // ~0.1% false-alarm budget
  EXPECT_EQ(monitor.samples_seen(), 800);
}

TEST(OnlineMonitor, DetectsPlantedBursts) {
  MonitorRig rig;
  OnlineMonitor monitor(rig.detector, rig.normalizer,
                        {.threshold_quantile = 0.995, .debounce_samples = 2});
  monitor.calibrate(rig.train);
  const auto noisy = make_sine(1000, true, 3);
  long events_fired = 0;
  monitor.on_event([&](const AnomalyEvent&) { ++events_fired; });
  for (Index t = 0; t < noisy.length(); ++t) monitor.push(noisy.sample(t));
  // Bursts at samples 200-215, 450-465, 700-715, 950-965: expect most caught.
  EXPECT_GE(static_cast<long>(monitor.events().size()), 3);
  EXPECT_EQ(events_fired, static_cast<long>(monitor.events().size()));
  // Event onsets must fall near the planted bursts (within holdoff slack).
  for (const AnomalyEvent& ev : monitor.events()) {
    const Index phase = ev.onset_sample % 250;
    EXPECT_GE(phase, 195) << "event onset " << ev.onset_sample;
    EXPECT_LE(phase, 230) << "event onset " << ev.onset_sample;
    EXPECT_GT(ev.peak_score, monitor.threshold());
    EXPECT_GE(ev.last_sample, ev.onset_sample);
  }
}

TEST(OnlineMonitor, DebounceSuppressesSingleSpikes) {
  MonitorRig rig;
  OnlineMonitor strict(rig.detector, rig.normalizer,
                       {.threshold_quantile = 0.9, .debounce_samples = 50});
  strict.calibrate(rig.train);
  const auto noisy = make_sine(600, true, 4);
  for (Index t = 0; t < noisy.length(); ++t) strict.push(noisy.sample(t));
  // 50 consecutive exceedances never happen for 15-sample bursts.
  EXPECT_TRUE(strict.events().empty());
}

TEST(AlarmTracker, UpdateReportsEveryEdgeOfAHandWrittenTrace) {
  // debounce 2, hold-off 3, threshold 1. Sample 1 stays below debounce, 4
  // raises, 5 and 6 extend (6 moves the peak), 7 dips in alarm, 8 extends,
  // 9-11 run the hold-off, 12 closes the event, 13 is below debounce again
  // and 14 re-raises.
  AlarmTracker tracker({.debounce_samples = 2, .holdoff_samples = 3});
  using E = AlarmEdge;
  const float scores[] = {0.5F, 1.5F, 0.5F, 2.0F, 3.0F, 2.5F, 4.0F, 0.5F,
                          1.2F, 0.5F, 0.5F, 0.5F, 0.5F, 2.0F, 2.0F, 0.1F};
  const E edges[] = {E::None,     E::None, E::None, E::None, E::Raised, E::Extended,
                     E::Extended, E::None, E::Extended, E::None, E::None, E::None,
                     E::None,     E::None, E::Raised,   E::None};
  const bool open[] = {false, false, false, false, true,  true,  true, true,
                       true,  true,  true,  true,  false, false, true, true};
  for (Index i = 0; i < 16; ++i) {
    EXPECT_EQ(tracker.update(scores[i], 1.0F, i), edges[i]) << "sample " << i;
    EXPECT_EQ(tracker.in_alarm(), open[i]) << "sample " << i;
  }
  const std::vector<AnomalyEvent>& events = tracker.events();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].onset_sample, 4);
  EXPECT_EQ(events[0].last_sample, 8);
  EXPECT_EQ(events[0].peak_score, 4.0F);
  EXPECT_EQ(events[1].onset_sample, 14);
  EXPECT_EQ(events[1].last_sample, 14);
  EXPECT_EQ(events[1].peak_score, 2.0F);
}

TEST(OnlineMonitor, WarmupReturnsNegativeScores) {
  MonitorRig rig;
  OnlineMonitor monitor(rig.detector, rig.normalizer);
  monitor.set_threshold(1.0F);
  const auto quiet = make_sine(10, false, 5);
  // kNN's context window is 1, so only the very first push is warm-up.
  EXPECT_LT(monitor.push(quiet.sample(0)), 0.0F);
  EXPECT_GE(monitor.push(quiet.sample(1)), 0.0F);
}

TEST(VaradePersistence, SaveLoadRoundTripPreservesScores) {
  const auto train_raw = make_sine(800, false, 6);
  data::MinMaxNormalizer norm;
  norm.fit(train_raw);
  const auto train = norm.transform(train_raw);

  VaradeConfig cfg;
  cfg.window = 32;
  cfg.base_channels = 8;
  cfg.epochs = 2;
  cfg.learning_rate = 1e-3F;
  cfg.train_stride = 4;
  VaradeDetector original(cfg);
  original.fit(train);

  const std::string path = ::testing::TempDir() + "/varade_detector.bin";
  original.save(path);

  VaradeDetector restored;
  restored.load(path);
  ASSERT_TRUE(restored.fitted());
  EXPECT_EQ(restored.config().window, 32);
  EXPECT_EQ(restored.config().base_channels, 8);

  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const Tensor ctx = Tensor::randn({1, 3, 32}, rng);
    const Tensor obs({1, 3});
    float before = 0.0F;
    float after = 0.0F;
    original.score_batch(ctx, obs, &before);
    restored.score_batch(ctx, obs, &after);
    EXPECT_EQ(std::memcmp(&before, &after, sizeof(float)), 0) << "trial " << trial;
  }
}

TEST(VaradePersistence, RejectsGarbageAndUnfitted) {
  VaradeDetector det;
  EXPECT_THROW(det.save(::testing::TempDir() + "/x.bin"), Error);  // unfitted
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a detector";
  }
  EXPECT_THROW(det.load(path), Error);
  EXPECT_THROW(det.load("/nonexistent/detector.bin"), Error);
}

TEST(VaradeWidth, FlatTrunkHasFewerParamsThanDoubling) {
  VaradeConfig doubling;
  doubling.window = 64;
  doubling.base_channels = 16;
  VaradeConfig flat = doubling;
  flat.channel_doubling = false;

  Rng rng1(1);
  Rng rng2(1);
  VaradeModel m_doubling(10, doubling, rng1);
  VaradeModel m_flat(10, flat, rng2);
  EXPECT_GT(m_doubling.num_params(), m_flat.num_params());
  EXPECT_GT(m_doubling.flops(), m_flat.flops());
  // Both still produce valid heads.
  const Tensor x = Tensor::randn({1, 10, 64}, rng1);
  EXPECT_EQ(m_flat.forward(x).mu.shape(), (Shape{1, 10}));
}

}  // namespace
}  // namespace varade::core
