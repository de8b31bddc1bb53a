// Tests for the batched, detector-generic scoring API.
//
// Two invariants are pinned here for all six detectors of the paper:
//  1. score_batch gives every row the score of a 1-row call (what
//     OnlineMonitor runs) at every batch size — the contract every batched
//     frontend is built on — and clone_fitted() replicas score
//     bit-identically to the original;
//  2. serve::ScoringEngine serves any fitted AnomalyDetector — scores and
//     alarm events match one sequential OnlineMonitor per stream exactly —
//     and so does a sharded serve::AsyncScoringRuntime, whose shards score
//     through clone_fitted() replicas.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "varade/core/monitor.hpp"
#include "varade/core/profiles.hpp"
#include "varade/data/window.hpp"
#include "varade/serve/runtime.hpp"

namespace varade::core {
namespace {

constexpr Index kChannels = 3;

data::MultivariateSeries make_sine(Index length, bool planted, std::uint64_t seed) {
  Rng rng(seed);
  data::MultivariateSeries s(kChannels);
  std::vector<float> row(static_cast<std::size_t>(kChannels));
  for (Index t = 0; t < length; ++t) {
    const bool anomalous = planted && (t % 120) >= 90 && (t % 120) < 100;
    for (Index c = 0; c < kChannels; ++c) {
      row[static_cast<std::size_t>(c)] =
          std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c)) +
          rng.normal(0.0F, anomalous ? 0.9F : 0.03F);
    }
    s.append(row, anomalous ? 1 : 0);
  }
  return s;
}

/// Tiny-footprint configurations of all six detectors (fit must stay fast;
/// the scoring contract under test is size-independent).
Profile tiny_profile() {
  Profile p = repro_profile();
  p.varade.window = 16;
  p.varade.base_channels = 8;
  p.varade.epochs = 2;
  p.varade.learning_rate = 1e-3F;
  p.varade.train_stride = 4;

  p.ar_lstm.window = 16;
  p.ar_lstm.hidden = 8;
  p.ar_lstm.n_layers = 1;
  p.ar_lstm.epochs = 1;
  p.ar_lstm.learning_rate = 1e-3F;
  p.ar_lstm.train_stride = 8;

  p.gbrf.window = 16;
  p.gbrf.feature_steps = 4;
  p.gbrf.forest.n_trees = 5;
  p.gbrf.forest.tree.max_depth = 3;

  p.ae.window = 16;
  p.ae.base_channels = 8;
  p.ae.epochs = 1;
  p.ae.learning_rate = 1e-3F;
  p.ae.train_stride = 8;

  p.knn.max_reference_points = 400;
  p.iforest.forest.n_trees = 25;
  p.iforest.forest.subsample = 64;
  return p;
}

/// All six detectors fitted once on a shared synthetic recording (fitting
/// dominates the runtime of this binary; every test only scores).
struct DetectorRig {
  data::MultivariateSeries train_raw = make_sine(600, false, 1);
  data::MinMaxNormalizer normalizer;
  data::MultivariateSeries train;
  Profile profile = tiny_profile();
  std::vector<std::unique_ptr<AnomalyDetector>> detectors;

  DetectorRig() {
    normalizer.fit(train_raw);
    train = normalizer.transform(train_raw);
    for (const std::string& name : detector_names()) {
      detectors.push_back(make_detector(profile, name));
      detectors.back()->fit(train);
    }
  }
};

DetectorRig& rig() {
  static DetectorRig* r = new DetectorRig();
  return *r;
}

/// Gathers `rows` (context, observation) pairs from a normalised series into
/// the score_batch layout, starting at the detector's context window.
void gather_pairs(const data::MultivariateSeries& series, Index window, Index rows,
                  Tensor& contexts, Tensor& observed) {
  contexts = Tensor({rows, kChannels, window});
  observed = Tensor({rows, kChannels});
  for (Index r = 0; r < rows; ++r) {
    const Index t = window + r;
    const Tensor context = data::extract_context(series, t - 1, window);
    for (Index i = 0; i < kChannels * window; ++i)
      contexts[r * kChannels * window + i] = context[i];
    const float* s = series.sample(t);
    for (Index c = 0; c < kChannels; ++c) observed[r * kChannels + c] = s[c];
  }
}

TEST(ScoreBatch, BitIdenticalToSingleRowAtEveryBatchSize) {
  const data::MultivariateSeries test =
      rig().normalizer.transform(make_sine(80, true, 7));
  for (auto& detector : rig().detectors) {
    const Index window = detector->context_window();
    constexpr Index kRows = 40;
    Tensor contexts;
    Tensor observed;
    gather_pairs(test, window, kRows, contexts, observed);

    // Single-row reference: the call OnlineMonitor makes per sample.
    std::vector<float> reference(static_cast<std::size_t>(kRows));
    for (Index r = 0; r < kRows; ++r)
      detector->score_batch(contexts.slice0(r, r + 1), observed.slice0(r, r + 1),
                            &reference[static_cast<std::size_t>(r)]);

    for (const Index batch : {Index{7}, Index{32}, kRows}) {
      std::vector<float> scores(static_cast<std::size_t>(kRows), -1.0F);
      for (Index begin = 0; begin < kRows; begin += batch) {
        const Index rows = std::min(batch, kRows - begin);
        Tensor ctx_chunk = contexts.slice0(begin, begin + rows);
        Tensor obs_chunk = observed.slice0(begin, begin + rows);
        detector->score_batch(ctx_chunk, obs_chunk, scores.data() + begin);
      }
      for (Index r = 0; r < kRows; ++r)
        EXPECT_EQ(scores[static_cast<std::size_t>(r)], reference[static_cast<std::size_t>(r)])
            << detector->name() << " batch " << batch << " row " << r;
    }
  }
}

TEST(ScoreBatch, RejectsMalformedShapes) {
  for (auto& detector : rig().detectors) {
    const Index window = detector->context_window();
    std::vector<float> out(4);
    EXPECT_THROW(detector->score_batch(Tensor({kChannels, window}), Tensor({1, kChannels}),
                                       out.data()),
                 Error)
        << detector->name();
    EXPECT_THROW(detector->score_batch(Tensor({2, kChannels, window + 1}),
                                       Tensor({2, kChannels}), out.data()),
                 Error)
        << detector->name();
    EXPECT_THROW(detector->score_batch(Tensor({2, kChannels, window}),
                                       Tensor({3, kChannels}), out.data()),
                 Error)
        << detector->name();
  }
}

TEST(CloneFitted, ReplicasScoreBitIdentically) {
  const data::MultivariateSeries test =
      rig().normalizer.transform(make_sine(64, true, 13));
  for (auto& detector : rig().detectors) {
    const std::unique_ptr<AnomalyDetector> clone = detector->clone_fitted();
    ASSERT_NE(clone, nullptr) << detector->name();
    EXPECT_TRUE(clone->fitted()) << detector->name();
    EXPECT_EQ(clone->name(), detector->name());
    EXPECT_EQ(clone->context_window(), detector->context_window());

    const Index window = detector->context_window();
    constexpr Index kRows = 16;
    Tensor contexts;
    Tensor observed;
    gather_pairs(test, window, kRows, contexts, observed);
    std::vector<float> original(static_cast<std::size_t>(kRows));
    std::vector<float> replica(static_cast<std::size_t>(kRows));
    detector->score_batch(contexts, observed, original.data());
    clone->score_batch(contexts, observed, replica.data());
    EXPECT_EQ(original, replica) << detector->name();
  }
}

TEST(CloneFitted, UnfittedDetectorThrows) {
  const Profile p = tiny_profile();
  for (const std::string& name : detector_names()) {
    const std::unique_ptr<AnomalyDetector> unfitted = make_detector(p, name);
    EXPECT_THROW(unfitted->clone_fitted(), Error) << name;
  }
}

TEST(ScoreSeries, BatchSizeDoesNotChangeScoresOrLabels) {
  const data::MultivariateSeries test =
      rig().normalizer.transform(make_sine(120, true, 21));
  for (auto& detector : rig().detectors) {
    const SeriesScores one = detector->score_series(test, 2, 1);
    const SeriesScores seven = detector->score_series(test, 2, 7);
    const SeriesScores wide = detector->score_series(test, 2, 1024);
    EXPECT_EQ(one.scores, seven.scores) << detector->name();
    EXPECT_EQ(one.scores, wide.scores) << detector->name();
    EXPECT_EQ(one.labels, seven.labels) << detector->name();
    EXPECT_EQ(one.times, seven.times) << detector->name();
    EXPECT_THROW(detector->score_series(test, 2, 0), Error) << detector->name();
  }
}

TEST(CalibrateThreshold, BatchSizeDoesNotChangeThreshold) {
  for (auto& detector : rig().detectors) {
    MonitorConfig narrow;
    narrow.calibration_batch = 1;
    MonitorConfig wide;
    wide.calibration_batch = 64;
    EXPECT_EQ(calibrate_threshold(*detector, rig().train, narrow),
              calibrate_threshold(*detector, rig().train, wide))
        << detector->name();
  }
}

/// Scores + events of one stream run through a sequential OnlineMonitor.
struct SequentialRun {
  std::vector<float> scores;
  std::vector<AnomalyEvent> events;
  bool in_alarm = false;
};

SequentialRun run_monitor(AnomalyDetector& detector, const data::MultivariateSeries& stream,
                          float threshold) {
  OnlineMonitor monitor(detector, rig().normalizer);
  monitor.set_threshold(threshold);
  SequentialRun run;
  for (Index t = 0; t < stream.length(); ++t) run.scores.push_back(monitor.push(stream.sample(t)));
  run.events = monitor.events();
  run.in_alarm = monitor.in_alarm();
  return run;
}

TEST(ScoringEngineAllDetectors, MultiStreamParityWithSequentialMonitors) {
  constexpr Index kStreams = 4;
  std::vector<data::MultivariateSeries> inputs;
  for (Index s = 0; s < kStreams; ++s)
    inputs.push_back(make_sine(150, /*planted=*/s % 2 == 0, 100 + static_cast<std::uint64_t>(s)));

  for (auto& detector : rig().detectors) {
    const float threshold = calibrate_threshold(*detector, rig().train, {});
    std::vector<SequentialRun> expected;
    for (Index s = 0; s < kStreams; ++s)
      expected.push_back(run_monitor(*detector, inputs[static_cast<std::size_t>(s)], threshold));

    serve::ScoringEngine engine(*detector, rig().normalizer, {.max_batch = 7});
    engine.add_streams(kStreams);
    engine.set_threshold(threshold);

    // Feed in chunks so step() sees many streams pending at once and batches
    // their contexts.
    std::vector<std::vector<float>> scores(kStreams);
    constexpr Index kChunk = 25;
    for (Index t0 = 0; t0 < 150; t0 += kChunk) {
      for (Index s = 0; s < kStreams; ++s)
        for (Index t = t0; t < t0 + kChunk; ++t)
          engine.push(s, inputs[static_cast<std::size_t>(s)].sample(t), 3);
      for (const serve::StreamScore& r : engine.step())
        scores[static_cast<std::size_t>(r.stream)].push_back(r.score);
    }
    EXPECT_GT(engine.forward_calls(), 0) << detector->name();

    for (Index s = 0; s < kStreams; ++s) {
      const auto& got = scores[static_cast<std::size_t>(s)];
      const auto& want = expected[static_cast<std::size_t>(s)].scores;
      ASSERT_EQ(got.size(), want.size()) << detector->name() << " stream " << s;
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << detector->name() << " stream " << s << " sample " << i;

      const auto& events = engine.events(s);
      const auto& want_events = expected[static_cast<std::size_t>(s)].events;
      ASSERT_EQ(events.size(), want_events.size()) << detector->name() << " stream " << s;
      for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].onset_sample, want_events[i].onset_sample)
            << detector->name() << " stream " << s << " event " << i;
        EXPECT_EQ(events[i].last_sample, want_events[i].last_sample)
            << detector->name() << " stream " << s << " event " << i;
        EXPECT_EQ(events[i].peak_score, want_events[i].peak_score)
            << detector->name() << " stream " << s << " event " << i;
      }
      EXPECT_EQ(engine.in_alarm(s), expected[static_cast<std::size_t>(s)].in_alarm)
          << detector->name() << " stream " << s;
    }
  }
}

TEST(ScoringEngineAllDetectors, ShardedRuntimeReplicasMatchSequentialMonitors) {
  // Three shards over five streams: shards 1 and 2 score through
  // clone_fitted() replicas, shard 0 through the borrowed detector.
  constexpr Index kStreams = 5;
  constexpr Index kSamples = 150;
  std::vector<data::MultivariateSeries> inputs;
  for (Index s = 0; s < kStreams; ++s)
    inputs.push_back(
        make_sine(kSamples, /*planted=*/s % 2 == 0, 200 + static_cast<std::uint64_t>(s)));

  for (auto& detector : rig().detectors) {
    const float threshold = calibrate_threshold(*detector, rig().train, {});
    serve::AsyncRuntimeConfig cfg;
    cfg.engine = {.max_batch = 7};
    cfg.n_shards = 3;
    serve::AsyncScoringRuntime runtime(*detector, rig().normalizer, cfg);
    runtime.add_streams(kStreams);
    runtime.set_threshold(threshold);
    runtime.start();
    for (Index t = 0; t < kSamples; ++t)
      for (Index s = 0; s < kStreams; ++s)
        ASSERT_EQ(runtime.push(s, inputs[static_cast<std::size_t>(s)].sample(t), 3),
                  serve::PushResult::Ok);
    runtime.close();
    // drain_scores() keeps each stream's emission order across the shards.
    std::vector<std::vector<float>> scores(kStreams);
    for (const serve::StreamScore& r : runtime.drain_scores())
      scores[static_cast<std::size_t>(r.stream)].push_back(r.score);

    for (Index s = 0; s < kStreams; ++s) {
      const SequentialRun want = run_monitor(*detector, inputs[static_cast<std::size_t>(s)],
                                             threshold);
      EXPECT_EQ(scores[static_cast<std::size_t>(s)], want.scores)
          << detector->name() << " stream " << s;
      const auto& events = runtime.events(s);
      ASSERT_EQ(events.size(), want.events.size()) << detector->name() << " stream " << s;
      for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].onset_sample, want.events[i].onset_sample)
            << detector->name() << " stream " << s << " event " << i;
        EXPECT_EQ(events[i].last_sample, want.events[i].last_sample)
            << detector->name() << " stream " << s << " event " << i;
        EXPECT_EQ(events[i].peak_score, want.events[i].peak_score)
            << detector->name() << " stream " << s << " event " << i;
      }
      EXPECT_EQ(runtime.in_alarm(s), want.in_alarm) << detector->name() << " stream " << s;
    }
  }
}

TEST(ScoringEngineAllDetectors, CalibrateMatchesMonitorForEveryDetector) {
  for (auto& detector : rig().detectors) {
    OnlineMonitor monitor(*detector, rig().normalizer);
    monitor.calibrate(rig().train);
    serve::ScoringEngine engine(*detector, rig().normalizer);
    engine.calibrate(rig().train);
    EXPECT_EQ(engine.threshold(), monitor.threshold()) << detector->name();
  }
}

TEST(ScoringEngineAllDetectors, OutOfRangeStreamIdsThrowWithClearMessage) {
  serve::ScoringEngine engine(*rig().detectors.front(), rig().normalizer);
  engine.add_streams(2);
  const std::vector<float> sample(static_cast<std::size_t>(kChannels), 0.0F);

  EXPECT_THROW(engine.push(-1, sample.data(), kChannels), Error);
  EXPECT_THROW(engine.push(2, sample.data(), kChannels), Error);
  EXPECT_THROW(engine.events(7), Error);
  EXPECT_THROW(engine.in_alarm(-3), Error);
  EXPECT_THROW(engine.samples_seen(2), Error);

  try {
    engine.push(99, sample.data(), kChannels);
    FAIL() << "push(99) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "stream id 99 out of range [0, 2)");
  }
}

}  // namespace
}  // namespace varade::core
