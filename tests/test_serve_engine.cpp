// Tests for the serve::ScoringEngine multi-stream batched scoring layer.
//
// The engine's contract is exact equivalence with the sequential
// OnlineMonitor path: identical scores (bit for bit) and identical alarm
// events at any batch size. Parity holds because every
// model layer processes batch rows independently with a fixed accumulation
// order, and the engine reuses the monitor's AlarmTracker and calibration
// rule verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "varade/core/monitor.hpp"
#include "varade/core/varade.hpp"
#include "varade/serve/scoring_engine.hpp"

namespace varade::serve {
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

/// One fitted tiny VARADE shared by every test in this binary (fitting is by
/// far the slowest part; the engine only reads the model).
struct ServeRig {
  data::MultivariateSeries train_raw = make_sine(900, false, 1);
  data::MinMaxNormalizer normalizer;
  data::MultivariateSeries train;
  core::VaradeDetector detector;

  ServeRig()
      : detector({.window = 32,
                  .base_channels = 8,
                  .epochs = 2,
                  .learning_rate = 1e-3F,
                  .train_stride = 4}) {
    normalizer.fit(train_raw);
    train = normalizer.transform(train_raw);
    detector.fit(train);
  }
};

ServeRig& rig() {
  static ServeRig* r = new ServeRig();
  return *r;
}

/// Scores + events of one stream run through a sequential OnlineMonitor.
struct SequentialRun {
  std::vector<float> scores;
  std::vector<core::AnomalyEvent> events;
  bool in_alarm = false;
};

SequentialRun run_monitor(const data::MultivariateSeries& stream, core::MonitorConfig mc) {
  core::OnlineMonitor monitor(rig().detector, rig().normalizer, mc);
  monitor.calibrate(rig().train);
  SequentialRun run;
  for (Index t = 0; t < stream.length(); ++t) run.scores.push_back(monitor.push(stream.sample(t)));
  run.events = monitor.events();
  run.in_alarm = monitor.in_alarm();
  return run;
}

void expect_same_events(const std::vector<core::AnomalyEvent>& a,
                        const std::vector<core::AnomalyEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].onset_sample, b[i].onset_sample) << "event " << i;
    EXPECT_EQ(a[i].last_sample, b[i].last_sample) << "event " << i;
    EXPECT_EQ(a[i].peak_score, b[i].peak_score) << "event " << i;
  }
}

TEST(ScoringEngine, RequiresFittedComponentsAndValidConfig) {
  core::VaradeDetector unfitted;
  EXPECT_THROW(ScoringEngine(unfitted, rig().normalizer), Error);
  data::MinMaxNormalizer blank;
  EXPECT_THROW(ScoringEngine(rig().detector, blank), Error);
  EXPECT_THROW(ScoringEngine(rig().detector, rig().normalizer, {.max_batch = 0}), Error);
  ScoringEngineConfig bad;
  bad.monitor.debounce_samples = 0;
  EXPECT_THROW(ScoringEngine(rig().detector, rig().normalizer, bad), Error);
}

TEST(ScoringEngine, StepBeforeCalibrationThrows) {
  ScoringEngine engine(rig().detector, rig().normalizer);
  engine.add_stream();
  const float sample[3] = {};
  engine.push(0, sample, 3);
  EXPECT_THROW(engine.step(), Error);
}

TEST(ScoringEngine, CalibrationMatchesMonitorExactly) {
  core::OnlineMonitor monitor(rig().detector, rig().normalizer);
  monitor.calibrate(rig().train);
  ScoringEngine engine(rig().detector, rig().normalizer);
  engine.calibrate(rig().train);
  EXPECT_EQ(engine.threshold(), monitor.threshold());
}

TEST(ScoringEngine, SingleStreamParityBitForBit) {
  const auto stream = make_sine(500, true, 7);
  const SequentialRun seq = run_monitor(stream, {});

  ScoringEngine engine(rig().detector, rig().normalizer, {.max_batch = 1});
  engine.add_stream();
  engine.calibrate(rig().train);

  std::vector<float> scores;
  for (Index t = 0; t < stream.length(); ++t) {
    engine.push(0, stream.sample(t), stream.n_channels());
    const auto results = engine.step();
    ASSERT_EQ(results.size(), 1U);
    EXPECT_EQ(results[0].stream, 0);
    EXPECT_EQ(results[0].sample, t);
    scores.push_back(results[0].score);
  }

  ASSERT_EQ(scores.size(), seq.scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    EXPECT_EQ(scores[i], seq.scores[i]) << "score diverged at sample " << i;
  expect_same_events(engine.events(0), seq.events);
  EXPECT_EQ(engine.in_alarm(0), seq.in_alarm);
  EXPECT_EQ(engine.samples_seen(0), stream.length());
}

TEST(ScoringEngine, EightStreamsBatchedMatchSequentialMonitors) {
  constexpr Index kStreams = 8;
  std::vector<data::MultivariateSeries> inputs;
  std::vector<SequentialRun> expected;
  for (Index s = 0; s < kStreams; ++s) {
    inputs.push_back(make_sine(400, /*planted=*/s % 2 == 0, 100 + static_cast<std::uint64_t>(s)));
    expected.push_back(run_monitor(inputs.back(), {}));
  }

  ScoringEngine engine(rig().detector, rig().normalizer, {.max_batch = 4});
  engine.add_streams(kStreams);
  engine.calibrate(rig().train);

  // Feed in chunks so step() sees many streams pending at once and batches
  // their contexts.
  std::vector<std::vector<float>> scores(kStreams);
  // Events rebuilt from StreamScore::alarm alone, the way the daemon's ALARM
  // frames rebuild them: Raised opens an event, Extended moves its end and
  // folds the score into the peak.
  std::vector<std::vector<core::AnomalyEvent>> folded(kStreams);
  constexpr Index kChunk = 25;
  for (Index t0 = 0; t0 < 400; t0 += kChunk) {
    for (Index s = 0; s < kStreams; ++s)
      for (Index t = t0; t < t0 + kChunk; ++t) engine.push(s, inputs[s].sample(t), 3);
    for (const StreamScore& r : engine.step()) {
      scores[static_cast<std::size_t>(r.stream)].push_back(r.score);
      std::vector<core::AnomalyEvent>& ev = folded[static_cast<std::size_t>(r.stream)];
      if (r.alarm == core::AlarmEdge::Raised) {
        ev.push_back({.onset_sample = r.sample, .last_sample = r.sample, .peak_score = r.score});
      } else if (r.alarm == core::AlarmEdge::Extended) {
        ASSERT_FALSE(ev.empty()) << "Extended before any Raised on stream " << r.stream;
        ev.back().last_sample = r.sample;
        ev.back().peak_score = std::max(ev.back().peak_score, r.score);
      }
    }
  }
  EXPECT_GT(engine.forward_calls(), 0);

  for (Index s = 0; s < kStreams; ++s) {
    const auto& got = scores[static_cast<std::size_t>(s)];
    const auto& want = expected[static_cast<std::size_t>(s)].scores;
    ASSERT_EQ(got.size(), want.size()) << "stream " << s;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "stream " << s << " sample " << i;
    expect_same_events(engine.events(s), expected[static_cast<std::size_t>(s)].events);
    EXPECT_EQ(engine.in_alarm(s), expected[static_cast<std::size_t>(s)].in_alarm);
    expect_same_events(folded[static_cast<std::size_t>(s)], engine.events(s));
  }
  // The planted streams must actually alarm, or the fold above proves nothing.
  EXPECT_FALSE(folded[0].empty());
}

TEST(ScoringEngine, DeterministicAcrossRunsAndConfigs) {
  constexpr Index kStreams = 5;
  std::vector<data::MultivariateSeries> inputs;
  for (Index s = 0; s < kStreams; ++s)
    inputs.push_back(make_sine(200, true, 300 + static_cast<std::uint64_t>(s)));

  auto run_with = [&](ScoringEngineConfig cfg) {
    ScoringEngine engine(rig().detector, rig().normalizer, cfg);
    engine.add_streams(kStreams);
    engine.calibrate(rig().train);
    for (Index s = 0; s < kStreams; ++s)
      for (Index t = 0; t < inputs[s].length(); ++t) engine.push(s, inputs[s].sample(t), 3);
    std::vector<float> flat;
    for (const StreamScore& r : engine.step()) flat.push_back(r.score);
    return flat;
  };

  const auto base = run_with({.max_batch = 1});
  const auto chunked = run_with({.max_batch = 3});
  const auto chunked2 = run_with({.max_batch = 3});
  const auto wide = run_with({.max_batch = 64});
  ASSERT_EQ(base.size(), chunked.size());
  EXPECT_EQ(base, chunked);
  EXPECT_EQ(chunked, chunked2);
  EXPECT_EQ(base, wide);
}

TEST(ScoringEngine, AlarmEventsLandOnPlantedBursts) {
  const auto noisy = make_sine(1000, true, 11);
  ScoringEngine engine(rig().detector, rig().normalizer, {.max_batch = 16});
  engine.add_stream();
  engine.calibrate(rig().train);
  for (Index t = 0; t < noisy.length(); ++t) engine.push(0, noisy.sample(t), noisy.n_channels());
  engine.step();

  // Bursts are planted at phases 200-215 of every 250-sample period; the
  // monitor equivalence is checked bit-for-bit above, so here we pin the
  // end-to-end behaviour: events exist and onsets fall near the bursts.
  const auto& events = engine.events(0);
  ASSERT_GE(events.size(), 2U);
  for (const core::AnomalyEvent& ev : events) {
    const Index phase = ev.onset_sample % 250;
    EXPECT_GE(phase, 195) << "event onset " << ev.onset_sample;
    EXPECT_LE(phase, 230) << "event onset " << ev.onset_sample;
    EXPECT_GT(ev.peak_score, engine.threshold());
  }
}

TEST(ScoringEngine, UnevenStreamsWarmupAndBookkeeping) {
  ScoringEngine engine(rig().detector, rig().normalizer, {.max_batch = 8});
  engine.add_streams(3);
  engine.set_threshold(1e9F);  // never alarms

  const auto quiet = make_sine(50, false, 21);
  // Stream 0 gets 40 samples, stream 1 gets 33 (window is 32), stream 2 none.
  for (Index t = 0; t < 40; ++t) engine.push(0, quiet.sample(t), quiet.n_channels());
  for (Index t = 0; t < 33; ++t) engine.push(1, quiet.sample(t), quiet.n_channels());
  const auto results = engine.step();
  EXPECT_EQ(results.size(), 73U);

  Index warm0 = 0, warm1 = 0;
  for (const StreamScore& r : results) {
    if (r.score >= 0.0F) (r.stream == 0 ? warm0 : warm1)++;
  }
  EXPECT_EQ(warm0, 8);  // samples 32..39 scored
  EXPECT_EQ(warm1, 1);  // sample 32 scored
  EXPECT_EQ(engine.samples_seen(0), 40);
  EXPECT_EQ(engine.samples_seen(1), 33);
  EXPECT_EQ(engine.samples_seen(2), 0);
  EXPECT_TRUE(engine.events(2).empty());
  EXPECT_THROW(engine.events(99), Error);
  // Draining again with nothing pending is a no-op.
  EXPECT_TRUE(engine.step().empty());
}

// perfbench divides engine samples by forward_calls() to report rows per
// scoring call, so the count must be exactly one per score_streams call: one
// per round per max_batch chunk of warm streams, none during warm-up.
TEST(ScoringEngine, ForwardCallsCountOneScoringCallPerChunkOfWarmStreams) {
  ScoringEngine engine(rig().detector, rig().normalizer, {.max_batch = 3});
  engine.add_streams(7);
  engine.set_threshold(1e9F);
  const Index window = rig().detector.context_window();
  const auto quiet = make_sine(window + 10, false, 31);

  // Warm-up: every stream folds `window` samples, none is scored.
  for (Index t = 0; t < window; ++t) {
    for (Index s = 0; s < 7; ++s) engine.push(s, quiet.sample(t), 3);
    engine.step();
    EXPECT_EQ(engine.forward_calls(), 0) << "warm-up round " << t;
  }

  // One warm round of 7 streams: chunks of 3 + 3 + 1.
  for (Index s = 0; s < 7; ++s) engine.push(s, quiet.sample(window), 3);
  engine.step();
  EXPECT_EQ(engine.forward_calls(), 3);

  // Two rounds in one step(): three chunks each.
  for (Index s = 0; s < 7; ++s)
    for (Index t = window + 1; t < window + 3; ++t) engine.push(s, quiet.sample(t), 3);
  engine.step();
  EXPECT_EQ(engine.forward_calls(), 9);

  // Two warm streams plus a new one still warming up: one chunk.
  const Index fresh = engine.add_stream();
  engine.push(0, quiet.sample(window + 3), 3);
  engine.push(4, quiet.sample(window + 3), 3);
  engine.push(fresh, quiet.sample(0), 3);
  engine.step();
  EXPECT_EQ(engine.forward_calls(), 10);
}

}  // namespace
}  // namespace varade::serve
