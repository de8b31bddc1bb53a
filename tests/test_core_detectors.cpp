// Detector-level tests: the unified interface, each detector on a planted
// easy anomaly task, the VARADE loss mechanics, and failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "varade/core/baselines/ar_lstm.hpp"
#include "varade/core/baselines/autoencoder.hpp"
#include "varade/core/baselines/gbrf.hpp"
#include "varade/core/baselines/iforest.hpp"
#include "varade/core/baselines/knn.hpp"
#include "varade/core/profiles.hpp"
#include "varade/core/varade.hpp"
#include "varade/data/window.hpp"
#include "varade/eval/metrics.hpp"

namespace varade::core {
namespace {

// Synthetic task: smooth multi-sine normal signal; anomalies are bursts of
// large additive noise. Easy enough that any reasonable detector beats 0.5.
data::MultivariateSeries make_sine_series(Index length, Index channels, bool with_anomalies,
                                          std::uint64_t seed) {
  Rng rng(seed);
  data::MultivariateSeries s(channels);
  std::vector<float> row(static_cast<std::size_t>(channels));
  std::vector<float> phase(static_cast<std::size_t>(channels));
  for (auto& p : phase) p = rng.uniform(0.0F, 6.28F);
  for (Index t = 0; t < length; ++t) {
    const bool anomalous = with_anomalies && (t % 200) >= 170 && (t % 200) < 185;
    for (Index c = 0; c < channels; ++c) {
      const float base =
          std::sin(0.05F * static_cast<float>(t) + phase[static_cast<std::size_t>(c)]) +
          0.3F * std::sin(0.11F * static_cast<float>(t));
      const float noise = rng.normal(0.0F, anomalous ? 0.8F : 0.03F);
      row[static_cast<std::size_t>(c)] = base + noise;
    }
    s.append(row, anomalous ? 1 : 0);
  }
  return s;
}

double auc_on_sine_task(AnomalyDetector& detector) {
  const auto train = make_sine_series(1200, 4, false, 1);
  const auto test = make_sine_series(1200, 4, true, 2);
  detector.fit(train);
  const SeriesScores scores = detector.score_series(test, 2);
  return eval::auc_roc(scores.scores, scores.labels);
}

TEST(VaradeDetector, LayerCountRuleMatchesPaper) {
  // T=512 -> 8 conv layers (paper section 3.1).
  EXPECT_EQ(varade_layer_count(512), 8);
  EXPECT_EQ(varade_layer_count(64), 5);
  EXPECT_EQ(varade_layer_count(8), 2);
  EXPECT_THROW(varade_layer_count(100), Error);  // not a power of two
  EXPECT_THROW(varade_layer_count(4), Error);
}

TEST(VaradeModel, ChannelDoublingRule) {
  VaradeConfig cfg;
  cfg.window = 64;
  cfg.base_channels = 32;
  Rng rng(1);
  VaradeModel model(10, cfg, rng);
  EXPECT_EQ(model.n_layers(), 5);
  // Channels: 32, 32, 64, 64, 128; final length 2 -> feature dim 256.
  EXPECT_EQ(model.mu_head().in_features(), 256);
  EXPECT_EQ(model.logvar_head().out_features(), 10);
  const Tensor x = Tensor::randn({2, 10, 64}, rng);
  const VaradeModel::Output out = model.forward(x);
  EXPECT_EQ(out.mu.shape(), (Shape{2, 10}));
  EXPECT_EQ(out.logvar.shape(), (Shape{2, 10}));
}

TEST(VaradeModel, RejectsWrongInput) {
  VaradeConfig cfg;
  cfg.window = 32;
  cfg.base_channels = 8;
  Rng rng(2);
  VaradeModel model(3, cfg, rng);
  EXPECT_THROW(model.forward(Tensor({1, 3, 16})), Error);
  EXPECT_THROW(model.forward(Tensor({1, 4, 32})), Error);
}

TEST(VaradeDetector, TrainingReducesElboLoss) {
  VaradeConfig cfg;
  cfg.window = 32;
  cfg.base_channels = 8;
  cfg.epochs = 6;
  cfg.learning_rate = 1e-3F;
  cfg.train_stride = 2;
  VaradeDetector det(cfg);
  det.fit(make_sine_series(600, 3, false, 3));
  const auto& history = det.loss_history();
  ASSERT_EQ(history.size(), 6U);
  EXPECT_LT(history.back(), history.front());
}

TEST(VaradeDetector, BeatsChanceOnPlantedAnomalies) {
  VaradeConfig cfg;
  cfg.window = 32;
  cfg.base_channels = 8;
  cfg.epochs = 8;
  cfg.learning_rate = 1e-3F;
  cfg.train_stride = 2;
  VaradeDetector det(cfg);
  EXPECT_GT(auc_on_sine_task(det), 0.6);
}

TEST(VaradeDetector, VarianceAndForecastScoresAreFinite) {
  VaradeConfig cfg;
  cfg.window = 32;
  cfg.base_channels = 8;
  cfg.epochs = 2;
  cfg.train_stride = 4;
  VaradeDetector det(cfg);
  det.fit(make_sine_series(400, 3, false, 4));
  Rng rng(5);
  const Tensor ctx = Tensor::randn({3, 32}, rng);
  const Tensor obs = Tensor::randn({3}, rng);
  float variance = 0.0F;
  det.score_batch(ctx.reshaped({1, 3, 32}), obs.reshaped({1, 3}), &variance);
  EXPECT_TRUE(std::isfinite(variance));
  EXPECT_GT(variance, 0.0F);  // a variance
  EXPECT_TRUE(std::isfinite(det.forecast_error_score(ctx, obs)));
  EXPECT_GE(det.forecast_error_score(ctx, obs), 0.0F);
}

// The scoring path runs only the trunk and the logvar head (mu is discarded
// at inference, section 3.2). Pin it to the full two-head forward on the
// repro architecture (86 channels, window 32, base 16): score_batch over all
// rows and over single rows must equal
// score_from_logvar(forward_inference(x).logvar) bit for bit.
TEST(VaradeDetector, LogvarOnlyScoreMatchesFullForwardBitForBit) {
  constexpr Index kChannels = 86;
  constexpr Index kRows = 16;
  VaradeConfig cfg = repro_profile().varade;
  cfg.epochs = 1;
  cfg.train_stride = 16;
  VaradeDetector det(cfg);
  det.fit(make_sine_series(256, kChannels, false, 8));
  Rng rng(9);
  const Tensor contexts = Tensor::randn({kRows, kChannels, cfg.window}, rng);
  const Tensor observed = Tensor::randn({kRows, kChannels}, rng);
  const Tensor logvar = det.model()->forward_inference(contexts).logvar;

  std::vector<float> batched(kRows);
  det.score_batch(contexts, observed, batched.data());
  for (Index r = 0; r < kRows; ++r) {
    const float expected =
        VaradeDetector::score_from_logvar(logvar.data() + r * kChannels, kChannels);
    float single = 0.0F;
    det.score_batch(contexts.slice0(r, r + 1), observed.slice0(r, r + 1), &single);
    EXPECT_EQ(std::memcmp(&batched[r], &expected, sizeof(float)), 0) << "score_batch row " << r;
    EXPECT_EQ(std::memcmp(&single, &expected, sizeof(float)), 0) << "single-row batch " << r;
  }
}

/// Scores of a normalised series through the per-stream-state calls, one
/// stream fed one sample at a time (-1 while warming up).
std::vector<float> streamed_scores(AnomalyDetector& det, const data::MultivariateSeries& series) {
  const Index c = series.n_channels();
  std::vector<float> state(static_cast<std::size_t>(det.stream_state_floats(c)), 0.0F);
  float* slot = state.data();
  StreamScratch scratch;
  std::vector<float> scores;
  for (Index t = 0; t < series.length(); ++t) {
    const StreamBatch row{&slot, &t, series.sample(t), 1, c};
    float score = -1.0F;
    if (t >= det.context_window()) det.score_streams(row, scratch, &score);
    det.advance_streams(row, scratch);
    scores.push_back(score);
  }
  return scores;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// load() is all or nothing: a truncated file or one whose weights do not fit
// the architecture throws and leaves the detector exactly as it was.
TEST(VaradeDetector, FailedLoadLeavesTheDetectorUnchanged) {
  const auto train = make_sine_series(300, 4, false, 1);
  const auto test = make_sine_series(80, 4, true, 2);
  const VaradeConfig cfg{.window = 16, .base_channels = 4, .epochs = 1, .train_stride = 4};
  VaradeDetector trained(cfg);
  trained.fit(train);
  const std::string path = ::testing::TempDir() + "varade_load_test.bin";
  trained.save(path);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string truncated_path = path + ".truncated";
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 20));
  }

  // A successful load scores like the saved detector, on both paths.
  VaradeDetector loaded(cfg);
  loaded.load(path);
  const SeriesScores want = trained.score_series(test);
  EXPECT_TRUE(same_bits(loaded.score_series(test).scores, want.scores));
  EXPECT_TRUE(same_bits(streamed_scores(loaded, test), streamed_scores(trained, test)));

  // Unfitted detectors stay unfitted. Without channel doubling the trunk's
  // last conv is narrower than the saved one: a shape mismatch.
  VaradeDetector blank(cfg);
  EXPECT_THROW(blank.load(truncated_path), Error);
  EXPECT_FALSE(blank.fitted());
  VaradeConfig narrow = cfg;
  narrow.channel_doubling = false;
  VaradeDetector blank_narrow(narrow);
  EXPECT_THROW(blank_narrow.load(path), Error);
  EXPECT_FALSE(blank_narrow.fitted());

  // Fitted detectors keep their model, config and scores bit for bit.
  VaradeDetector fitted_narrow(narrow);
  fitted_narrow.fit(train);
  const std::vector<float> before = fitted_narrow.score_series(test).scores;
  const std::vector<float> before_streamed = streamed_scores(fitted_narrow, test);
  for (const std::string& bad : {truncated_path, path}) {
    EXPECT_THROW(fitted_narrow.load(bad), Error) << bad;
    EXPECT_TRUE(fitted_narrow.fitted());
    EXPECT_EQ(fitted_narrow.context_window(), cfg.window);
    EXPECT_TRUE(same_bits(fitted_narrow.score_series(test).scores, before)) << bad;
    EXPECT_TRUE(same_bits(streamed_scores(fitted_narrow, test), before_streamed)) << bad;
  }
  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
}

TEST(VaradeDetector, ErrorsBeforeFitAndOnShortSeries) {
  VaradeDetector det;
  EXPECT_FALSE(det.fitted());
  Rng rng(6);
  float score = 0.0F;
  EXPECT_THROW(det.score_batch(Tensor::randn({1, 3, 512}, rng), Tensor({1, 3}), &score), Error);
  VaradeConfig cfg;
  cfg.window = 64;
  VaradeDetector det2(cfg);
  EXPECT_THROW(det2.fit(make_sine_series(32, 2, false, 7)), Error);
}

TEST(ArLstmDetector, BeatsChanceOnPlantedAnomalies) {
  ArLstmConfig cfg;
  cfg.window = 16;
  cfg.hidden = 16;
  cfg.n_layers = 1;
  cfg.epochs = 4;
  cfg.learning_rate = 3e-3F;
  cfg.train_stride = 4;
  ArLstmDetector det(cfg);
  EXPECT_GT(auc_on_sine_task(det), 0.6);
}

TEST(ArLstmDetector, ForecastShapeAndLossDecreases) {
  ArLstmConfig cfg;
  cfg.window = 16;
  cfg.hidden = 12;
  cfg.n_layers = 2;
  cfg.epochs = 3;
  cfg.learning_rate = 3e-3F;
  cfg.train_stride = 4;
  ArLstmDetector det(cfg);
  det.fit(make_sine_series(500, 3, false, 8));
  EXPECT_LT(det.loss_history().back(), det.loss_history().front());
  Rng rng(9);
  const Tensor pred = det.forecast(Tensor::randn({3, 16}, rng));
  EXPECT_EQ(pred.shape(), (Shape{3}));
}

TEST(GbrfDetector, BeatsChanceOnPlantedAnomalies) {
  GbrfDetectorConfig cfg;
  cfg.window = 16;
  cfg.feature_steps = 4;
  cfg.forest.n_trees = 10;
  cfg.forest.tree.max_depth = 3;
  GbrfDetector det(cfg);
  EXPECT_GT(auc_on_sine_task(det), 0.6);
}

TEST(GbrfDetector, FeatureDimAndForecast) {
  GbrfDetectorConfig cfg;
  cfg.window = 16;
  cfg.feature_steps = 4;
  cfg.forest.n_trees = 5;
  cfg.forest.tree.max_depth = 2;
  GbrfDetector det(cfg);
  det.fit(make_sine_series(400, 3, false, 10));
  EXPECT_EQ(det.feature_dim(), 12);
  Rng rng(11);
  EXPECT_EQ(det.forecast(Tensor::randn({3, 16}, rng)).shape(), (Shape{3}));
}

TEST(AutoencoderDetector, BeatsChanceOnPlantedAnomalies) {
  AutoencoderConfig cfg;
  cfg.window = 16;
  cfg.base_channels = 8;
  cfg.epochs = 6;
  cfg.learning_rate = 3e-3F;
  cfg.train_stride = 2;
  AutoencoderDetector det(cfg);
  EXPECT_GT(auc_on_sine_task(det), 0.6);
}

TEST(AutoencoderDetector, ReconstructionImprovesWithTraining) {
  const auto train = make_sine_series(600, 3, false, 12);
  AutoencoderConfig cfg;
  cfg.window = 16;
  cfg.base_channels = 8;
  cfg.learning_rate = 3e-3F;
  cfg.train_stride = 2;

  cfg.epochs = 1;
  AutoencoderDetector brief(cfg);
  brief.fit(train);

  cfg.epochs = 8;
  AutoencoderDetector longer(cfg);
  longer.fit(train);

  const Tensor window = data::extract_context(train, 99, 16);
  EXPECT_LT(longer.window_reconstruction_error(window),
            brief.window_reconstruction_error(window));
}

TEST(KnnDetector, BeatsChanceOnPlantedAnomalies) {
  KnnDetectorConfig cfg;
  cfg.max_reference_points = 500;
  KnnDetector det(cfg);
  EXPECT_GT(auc_on_sine_task(det), 0.6);
}

TEST(IForestDetector, BeatsChanceOnPlantedAnomalies) {
  IForestDetectorConfig cfg;
  cfg.forest.n_trees = 50;
  IForestDetector det(cfg);
  EXPECT_GT(auc_on_sine_task(det), 0.55);
}

TEST(AllDetectors, CostDescriptionsAreValidAfterFit) {
  Profile p = repro_profile();
  p.varade.window = 32;
  p.varade.base_channels = 8;
  p.varade.epochs = 1;
  p.varade.train_stride = 8;
  p.ar_lstm.window = 16;
  p.ar_lstm.hidden = 8;
  p.ar_lstm.n_layers = 1;
  p.ar_lstm.epochs = 1;
  p.ar_lstm.train_stride = 8;
  p.gbrf.window = 16;
  p.gbrf.feature_steps = 2;
  p.gbrf.forest.n_trees = 2;
  p.ae.window = 16;
  p.ae.base_channels = 4;
  p.ae.epochs = 1;
  p.ae.train_stride = 8;
  p.knn.max_reference_points = 100;
  p.iforest.forest.n_trees = 5;

  const auto train = make_sine_series(400, 3, false, 13);
  for (const std::string& name : detector_names()) {
    auto det = make_detector(p, name);
    EXPECT_EQ(det->name(), name);
    EXPECT_THROW(det->cost(), Error);  // before fit
    det->fit(train);
    ASSERT_TRUE(det->fitted());
    const edge::ModelCost cost = det->cost();
    EXPECT_EQ(cost.name, name);
    EXPECT_GT(cost.flops, 0.0) << name;
    EXPECT_GE(cost.n_ops, 1) << name;
    EXPECT_GT(cost.parallel_efficiency, 0.0) << name;
  }
}

TEST(AllDetectors, ScoreSeriesAlignmentAndLatency) {
  const auto train = make_sine_series(400, 3, false, 14);
  const auto test = make_sine_series(400, 3, true, 15);
  KnnDetector det({.knn = {.k = 3}, .max_reference_points = 200});
  det.fit(train);
  const SeriesScores scores = det.score_series(test, 5);
  ASSERT_FALSE(scores.scores.empty());
  EXPECT_EQ(scores.scores.size(), scores.labels.size());
  EXPECT_EQ(scores.scores.size(), scores.times.size());
  // Times start after the context window and advance by the stride.
  EXPECT_EQ(scores.times.front(), det.context_window());
  EXPECT_EQ(scores.times[1] - scores.times[0], 5);
  EXPECT_GE(scores.mean_latency_ms, 0.0);
  EXPECT_THROW(det.score_series(test, 0), Error);
}

TEST(Profiles, ReproAndPaperAreConsistent) {
  const Profile repro = repro_profile();
  const Profile paper = paper_profile();
  EXPECT_EQ(paper.varade.window, 512);
  EXPECT_EQ(paper.varade.base_channels, 128);
  EXPECT_FLOAT_EQ(paper.varade.learning_rate, 1e-5F);
  EXPECT_EQ(paper.ar_lstm.hidden, 256);
  EXPECT_EQ(paper.ar_lstm.n_layers, 5);
  EXPECT_EQ(paper.gbrf.forest.n_trees, 30);
  EXPECT_EQ(paper.iforest.forest.n_trees, 100);
  EXPECT_FLOAT_EQ(paper.iforest.forest.contamination, 0.1F);
  EXPECT_EQ(paper.knn.knn.k, 5);
  EXPECT_EQ(paper.n_collisions, 125);
  EXPECT_NEAR(paper.train_duration_s, 390.0 * 60.0, 1e-6);
  EXPECT_NEAR(paper.test_duration_s, 82.0 * 60.0, 1e-6);
  // The repro profile preserves the structural rules at smaller scale.
  EXPECT_LT(repro.varade.window, paper.varade.window);
  EXPECT_EQ(repro.varade.window & (repro.varade.window - 1), 0);  // power of two
  EXPECT_THROW(make_detector(repro, "bogus"), Error);
}

}  // namespace
}  // namespace varade::core
