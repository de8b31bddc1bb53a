// Micro-benchmarks (google-benchmark) of the kernels behind Table 2:
// Conv1d, Linear, VARADE's score (mean exp per row), LSTM step, tree ensemble
// evaluation, GBRF's score_batch, kNN queries, the isolation-forest scorer,
// windowing, and AUC computation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "varade/core/profiles.hpp"
#include "varade/data/window.hpp"
#include "varade/eval/metrics.hpp"
#include "varade/knn/knn.hpp"
#include "varade/nn/exp.hpp"
#include "varade/nn/layers.hpp"
#include "varade/nn/lstm.hpp"
#include "varade/trees/gbrf.hpp"
#include "varade/trees/isolation_forest.hpp"

namespace {

using namespace varade;

void BM_Conv1dForward(benchmark::State& state) {
  const Index channels = state.range(0);
  const Index length = state.range(1);
  Rng rng(1);
  nn::Conv1d conv(channels, channels, 2, 2, 0, rng);
  const Tensor x = Tensor::randn({1, channels, length}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Conv1dForward)->Args({16, 64})->Args({32, 128})->Args({86, 512});

void BM_LinearForward(benchmark::State& state) {
  const Index in = state.range(0);
  Rng rng(2);
  nn::Linear linear(in, 86, rng);
  const Tensor x = Tensor::randn({1, in}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(linear.forward(x));
}
BENCHMARK(BM_LinearForward)->Arg(64)->Arg(256)->Arg(2048);

/// VARADE's score on `rows` rows of 86 log-variances (the served model's
/// channel count): nn::mean_exp_rows, the kernel score_batch and
/// score_streams run after the logvar head. Reports ns per row.
void BM_VaradeScoreRows(benchmark::State& state) {
  const Index rows = state.range(0);
  constexpr Index kChannels = 86;
  Rng rng(8);
  const Tensor logvar = Tensor::randn({rows, kChannels}, rng);
  std::vector<float> out(static_cast<std::size_t>(rows));
  for (auto _ : state) {
    nn::mean_exp_rows(logvar.data(), rows, kChannels, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_VaradeScoreRows)->Arg(16)->Arg(64);

void BM_LstmForward(benchmark::State& state) {
  const Index hidden = state.range(0);
  const Index length = state.range(1);
  Rng rng(3);
  nn::Lstm lstm(86, hidden, rng);
  const Tensor x = Tensor::randn({1, 86, length}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(lstm.forward(x));
}
BENCHMARK(BM_LstmForward)->Args({32, 32})->Args({64, 32});

void BM_GbrfPredict(benchmark::State& state) {
  const int n_trees = static_cast<int>(state.range(0));
  Rng rng(4);
  const Tensor x = Tensor::rand_uniform({512, 32}, rng, -1.0F, 1.0F);
  Tensor y({512});
  for (Index i = 0; i < 512; ++i) y[i] = rng.normal();
  trees::GbrfConfig cfg;
  cfg.n_trees = n_trees;
  cfg.tree.max_depth = 6;
  trees::GradientBoostedRegressor model(cfg);
  model.fit(x, y);
  const Tensor q = Tensor::rand_uniform({32}, rng, -1.0F, 1.0F);
  for (auto _ : state) benchmark::DoNotOptimize(model.predict_one(q));
}
BENCHMARK(BM_GbrfPredict)->Arg(5)->Arg(30);

/// GbrfDetector::score_batch at perfbench's gbrf-imu shape (3 channels,
/// window 32, 4 feature steps: 12 features; 3 outputs x 8 trees of depth 3),
/// fitted on a noisy 3-channel sine. Each call scores the next `rows` of a
/// pool of 1024 contexts from random offsets, so that, as with served
/// streams, successive calls take different paths through the trees.
/// Reports ns per row.
void BM_GbrfScoreBatch(benchmark::State& state) {
  const Index rows = state.range(0);
  constexpr Index kChannels = 3;
  constexpr Index kWindow = 32;
  constexpr Index kLength = 1200;
  constexpr Index kPool = 1024;
  core::Profile profile = core::repro_profile();
  profile.gbrf.window = kWindow;
  profile.gbrf.feature_steps = 4;
  profile.gbrf.forest.n_trees = 8;
  profile.gbrf.forest.tree.max_depth = 3;
  Rng rng(9);
  data::MultivariateSeries series(kChannels);
  std::vector<float> sample(kChannels);
  for (Index t = 0; t < kLength; ++t) {
    for (Index c = 0; c < kChannels; ++c)
      sample[static_cast<std::size_t>(c)] =
          std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c)) + rng.normal(0.0F, 0.1F);
    series.append(sample);
  }
  const std::unique_ptr<core::AnomalyDetector> detector = core::make_detector(profile, "GBRF");
  detector->fit(series);
  std::vector<Tensor> contexts;
  std::vector<Tensor> observed;
  for (Index b = 0; b < kPool / rows; ++b) {
    Tensor ctx({rows, kChannels, kWindow});
    Tensor obs({rows, kChannels});
    for (Index r = 0; r < rows; ++r) {
      const Index end = kWindow + rng.uniform_int(0, static_cast<int>(kLength - kWindow - 1));
      const Tensor context = data::extract_context(series, end - 1, kWindow);
      std::copy(context.data(), context.data() + context.numel(),
                ctx.data() + r * kChannels * kWindow);
      for (Index c = 0; c < kChannels; ++c) obs[r * kChannels + c] = series.sample(end)[c];
    }
    contexts.push_back(std::move(ctx));
    observed.push_back(std::move(obs));
  }
  std::vector<float> out(static_cast<std::size_t>(rows));
  std::size_t next = 0;
  for (auto _ : state) {
    detector->score_batch(contexts[next], observed[next], out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    next = next + 1 == contexts.size() ? 0 : next + 1;
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GbrfScoreBatch)->Arg(1)->Arg(32);

void BM_IsolationForestScore(benchmark::State& state) {
  Rng rng(5);
  const Tensor x = Tensor::randn({2048, 86}, rng);
  trees::IsolationForest forest({.n_trees = 100, .subsample = 256, .contamination = 0.1F});
  forest.fit(x);
  const Tensor q = Tensor::randn({86}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(forest.score_one(q));
}
BENCHMARK(BM_IsolationForestScore);

void BM_KnnQuery(benchmark::State& state) {
  const Index n_ref = state.range(0);
  Rng rng(6);
  const Tensor ref = Tensor::randn({n_ref, 86}, rng);
  knn::KnnAnomalyScorer scorer({.k = 5});
  scorer.fit(ref);
  const Tensor q = Tensor::randn({86}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(scorer.score_one(q));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KnnQuery)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_KdTreeQueryLowDim(benchmark::State& state) {
  Rng rng(7);
  const Tensor ref = Tensor::randn({10000, 4}, rng);
  knn::KdTree tree;
  tree.build(ref);
  const Tensor q = Tensor::randn({4}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tree.query(q, 5));
}
BENCHMARK(BM_KdTreeQueryLowDim);

void BM_WindowExtraction(benchmark::State& state) {
  const Index window = state.range(0);
  data::MultivariateSeries series(86);
  std::vector<float> row(86, 0.5F);
  for (Index t = 0; t < 2048; ++t) series.append(row);
  for (auto _ : state)
    benchmark::DoNotOptimize(data::extract_context(series, 2047, window));
}
BENCHMARK(BM_WindowExtraction)->Arg(32)->Arg(512);

void BM_AucRoc(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<float> scores(n);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = rng.uniform(0.0F, 1.0F);
    labels[i] = rng.bernoulli(0.1) ? 1 : 0;
  }
  for (auto _ : state) benchmark::DoNotOptimize(eval::auc_roc(scores, labels));
}
BENCHMARK(BM_AucRoc)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
