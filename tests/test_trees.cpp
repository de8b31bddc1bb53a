// Tests for the tree substrate: CART regression, gradient boosting, and
// Isolation Forest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "varade/trees/decision_tree.hpp"
#include "varade/trees/gbrf.hpp"
#include "varade/trees/isolation_forest.hpp"

namespace varade::trees {
namespace {

Tensor make_step_data(Tensor& y) {
  // x in [0,1); y = 1 for x <= 0.5 else -1 — one split fits exactly.
  const Index n = 40;
  Tensor x({n, 1});
  y = Tensor({n});
  for (Index i = 0; i < n; ++i) {
    x[i] = static_cast<float>(i) / static_cast<float>(n);
    y[i] = x[i] <= 0.5F ? 1.0F : -1.0F;
  }
  return x;
}

TEST(DecisionTree, FitsStepFunctionExactly) {
  Tensor y;
  const Tensor x = make_step_data(y);
  DecisionTreeRegressor tree({.max_depth = 2, .min_samples_leaf = 1, .min_samples_split = 2});
  tree.fit(x, y);
  const Tensor pred = tree.predict(x);
  EXPECT_TRUE(allclose(pred, y, 1e-6F));
  EXPECT_LE(tree.depth(), 2);
}

TEST(DecisionTree, ConstantTargetGivesSingleLeaf) {
  Tensor x({10, 2}, 1.0F);
  Tensor y({10}, 3.5F);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1U);
  EXPECT_FLOAT_EQ(tree.predict_one(x.row(0)), 3.5F);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Rng rng(1);
  const Tensor x = Tensor::rand_uniform({200, 3}, rng, -1.0F, 1.0F);
  Tensor y({200});
  for (Index i = 0; i < 200; ++i) y[i] = rng.normal();
  DecisionTreeRegressor tree({.max_depth = 3});
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTree, MinSamplesLeafHonoured) {
  Tensor y;
  const Tensor x = make_step_data(y);
  DecisionTreeRegressor tree({.max_depth = 10, .min_samples_leaf = 15, .min_samples_split = 30});
  tree.fit(x, y);
  // With 40 samples and min leaf 15, at most one split is possible.
  EXPECT_LE(tree.node_count(), 3U);
}

TEST(DecisionTree, PredictionReducesVariance) {
  Rng rng(2);
  const Index n = 400;
  Tensor x({n, 2});
  Tensor y({n});
  for (Index i = 0; i < n; ++i) {
    x[i * 2] = rng.uniform(-1.0F, 1.0F);
    x[i * 2 + 1] = rng.uniform(-1.0F, 1.0F);
    y[i] = (x[i * 2] > 0.0F ? 2.0F : -2.0F) + 0.1F * rng.normal();
  }
  DecisionTreeRegressor tree({.max_depth = 4});
  tree.fit(x, y);
  const Tensor pred = tree.predict(x);
  double sse = 0.0;
  for (Index i = 0; i < n; ++i) sse += (pred[i] - y[i]) * (pred[i] - y[i]);
  EXPECT_LT(sse / n, 0.05);  // residual near noise level
}

TEST(DecisionTree, FitRowsSubset) {
  Tensor y;
  const Tensor x = make_step_data(y);
  DecisionTreeRegressor tree({.max_depth = 2, .min_samples_leaf = 1, .min_samples_split = 2});
  std::vector<Index> rows;
  for (Index i = 0; i < 20; ++i) rows.push_back(i);  // only the y=1 half
  tree.fit_rows(x, y, rows);
  EXPECT_FLOAT_EQ(tree.predict_one(x.row(0)), 1.0F);
  EXPECT_THROW(tree.fit_rows(x, y, {}), Error);
  EXPECT_THROW(tree.fit_rows(x, y, {999}), Error);
}

TEST(DecisionTree, ErrorsBeforeFitAndOnBadShapes) {
  DecisionTreeRegressor tree;
  EXPECT_FALSE(tree.fitted());
  EXPECT_THROW(tree.predict_one(Tensor::vector({1.0F})), Error);
  EXPECT_THROW(tree.fit(Tensor({3}), Tensor({3})), Error);  // X must be rank 2
  EXPECT_THROW(tree.fit(Tensor({3, 1}), Tensor({4})), Error);
}

// A tree of known shape, split on feature 1 only (feature 0 is constant, so
// never chosen): x1 <= 6.5 -> -1000 (a leaf at depth 1); x1 <= 11.5 -> 100
// (depth 2); x1 <= 12.5 -> 200, else 300 (both at depth 3). The walk runs
// depth() steps for every row, so the rows that reach a shallow leaf early
// must stay on it, whatever feature 0 holds.
TEST(DecisionTree, WalkFollowsTheSplitRuleOnEdgeInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x1{0, 1, 2, 3, 10, 11, 12, 13};
  const std::vector<float> y1{-1000, -1000, -1000, -1000, 100, 100, 200, 300};
  Tensor x({8, 2});
  Tensor y({8});
  for (Index i = 0; i < 8; ++i) {
    x[i * 2] = 7.0F;
    x[i * 2 + 1] = x1[static_cast<std::size_t>(i)];
    y[i] = y1[static_cast<std::size_t>(i)];
  }
  DecisionTreeRegressor tree({.max_depth = 6, .min_samples_leaf = 1, .min_samples_split = 2});
  tree.fit(x, y);
  ASSERT_EQ(tree.depth(), 3);
  ASSERT_EQ(tree.node_count(), 7U);

  // Equality goes left at every level, NaN goes right, and +-inf land on
  // the outermost leaves.
  const std::vector<std::pair<std::vector<float>, float>> cases{
      {{7.0F, 6.5F}, -1000.0F}, {{7.0F, 11.5F}, 100.0F}, {{7.0F, 12.5F}, 200.0F},
      {{7.0F, nan}, 300.0F},    {{7.0F, -inf}, -1000.0F}, {{7.0F, inf}, 300.0F},
      {{nan, 0.0F}, -1000.0F},  {{-inf, 11.0F}, 100.0F},  {{inf, 12.0F}, 200.0F},
  };

  // A constant target gives a lone leaf: depth 0, and every input maps to it.
  DecisionTreeRegressor lone;
  lone.fit(x, Tensor({8}, 2.5F));
  ASSERT_EQ(lone.depth(), 0);
  ASSERT_EQ(lone.node_count(), 1U);

  const Index k = static_cast<Index>(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    EXPECT_EQ(tree.predict_one(cases[c].first.data()), cases[c].second) << "case " << c;
    EXPECT_EQ(lone.predict_one(cases[c].first.data()), 2.5F) << "case " << c;
  }
  // The batched walk at n = 1 (the 1-row walk) and n = 5 (one 4-row block,
  // then one tail row), with every case rotated through every row position.
  for (const Index n : {Index{1}, Index{5}}) {
    for (Index offset = 0; offset < k; ++offset) {
      std::vector<float> q;
      for (Index r = 0; r < n; ++r) {
        const auto& row = cases[static_cast<std::size_t>((offset + r) % k)].first;
        q.insert(q.end(), row.begin(), row.end());
      }
      std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
      std::vector<double> lone_acc(static_cast<std::size_t>(n), 0.0);
      tree.accumulate_rows(q.data(), n, 2, 1.0, acc.data());
      lone.accumulate_rows(q.data(), n, 2, 1.0, lone_acc.data());
      for (Index r = 0; r < n; ++r) {
        const std::size_t c = static_cast<std::size_t>((offset + r) % k);
        EXPECT_EQ(acc[static_cast<std::size_t>(r)], cases[c].second)
            << "n=" << n << " row " << r << " case " << c;
        EXPECT_EQ(lone_acc[static_cast<std::size_t>(r)], 2.5) << "n=" << n << " row " << r;
      }
    }
  }
}

TEST(Gbrf, BoostingReducesTrainingError) {
  Rng rng(3);
  const Index n = 300;
  Tensor x({n, 1});
  Tensor y({n});
  for (Index i = 0; i < n; ++i) {
    x[i] = rng.uniform(-3.0F, 3.0F);
    y[i] = std::sin(x[i]);
  }
  GbrfConfig one_cfg;
  one_cfg.n_trees = 1;
  one_cfg.tree.max_depth = 2;
  GradientBoostedRegressor one(one_cfg);
  one.fit(x, y);

  GbrfConfig many_cfg;
  many_cfg.n_trees = 30;
  many_cfg.tree.max_depth = 2;
  GradientBoostedRegressor many(many_cfg);
  many.fit(x, y);

  auto sse = [&](const GradientBoostedRegressor& model) {
    const Tensor pred = model.predict(x);
    double acc = 0.0;
    for (Index i = 0; i < n; ++i) acc += (pred[i] - y[i]) * (pred[i] - y[i]);
    return acc / n;
  };
  EXPECT_LT(sse(many), sse(one) * 0.5);
}

TEST(Gbrf, BasePredictionIsTargetMean) {
  Tensor x({4, 1}, std::vector<float>{0, 1, 2, 3});
  Tensor y = Tensor::vector({2, 4, 6, 8});
  GbrfConfig cfg;
  cfg.n_trees = 1;
  GradientBoostedRegressor model(cfg);
  model.fit(x, y);
  EXPECT_FLOAT_EQ(model.base_prediction(), 5.0F);
}

TEST(Gbrf, SubsampleAndConfigValidation) {
  EXPECT_THROW(GradientBoostedRegressor({.n_trees = 0}), Error);
  EXPECT_THROW(GradientBoostedRegressor({.learning_rate = 0.0F}), Error);
  EXPECT_THROW(GradientBoostedRegressor({.subsample = 1.5F}), Error);

  Rng rng(4);
  const Tensor x = Tensor::rand_uniform({100, 2}, rng, -1.0F, 1.0F);
  Tensor y({100});
  for (Index i = 0; i < 100; ++i) y[i] = x[i * 2];
  GbrfConfig cfg;
  cfg.subsample = 0.5F;
  cfg.n_trees = 10;
  GradientBoostedRegressor model(cfg);
  model.fit(x, y);
  EXPECT_EQ(model.n_trees(), 10);
}

TEST(MultiOutputGbrf, PredictsEachColumn) {
  Rng rng(5);
  const Index n = 200;
  Tensor x({n, 2});
  Tensor y({n, 2});
  for (Index i = 0; i < n; ++i) {
    x[i * 2] = rng.uniform(-1.0F, 1.0F);
    x[i * 2 + 1] = rng.uniform(-1.0F, 1.0F);
    y[i * 2] = x[i * 2] > 0.0F ? 1.0F : -1.0F;
    y[i * 2 + 1] = x[i * 2 + 1];
  }
  GbrfConfig cfg;
  cfg.n_trees = 10;
  cfg.tree.max_depth = 3;
  MultiOutputGbrf model(cfg);
  model.fit(x, y);
  EXPECT_EQ(model.n_outputs(), 2);
  const Tensor pred = model.predict(x);
  EXPECT_EQ(pred.shape(), (Shape{n, 2}));
  double err0 = 0.0;
  for (Index i = 0; i < n; ++i) err0 += std::fabs(pred[i * 2] - y[i * 2]);
  EXPECT_LT(err0 / n, 0.3);
  // predict_one agrees with batch predict
  const Tensor p1 = model.predict_one(x.row(0));
  EXPECT_NEAR(p1[0], pred[0], 1e-5F);
  EXPECT_NEAR(p1[1], pred[1], 1e-5F);
}

// predict_rows (tree-major, the batched GBRF scoring path) must reproduce
// predict_one (row-major) bit for bit at every row count: GbrfDetector's
// score_batch and a 1-row call through it rely on it, and the EXPECT_NEAR
// check above would let a change in the per-row rounding through.
TEST(GbrfPredictRows, BitIdenticalToPredictOneAtEveryRowCount) {
  Rng rng(11);
  const Index n_train = 300;
  const Index d = 5;
  const Index m = 3;
  Tensor x({n_train, d});
  Tensor y({n_train, m});
  for (Index i = 0; i < n_train; ++i) {
    for (Index j = 0; j < d; ++j) x[i * d + j] = rng.uniform(-1.0F, 1.0F);
    for (Index k = 0; k < m; ++k)
      y[i * m + k] = std::sin(3.0F * x[i * d + k]) * x[i * d + k + 1] + rng.normal(0.0F, 0.1F);
  }
  GbrfConfig cfg;
  cfg.n_trees = 30;
  cfg.tree.max_depth = 4;
  cfg.subsample = 0.8F;
  MultiOutputGbrf multi(cfg);
  multi.fit(x, y);
  Tensor column({n_train});
  for (Index i = 0; i < n_train; ++i) column[i] = y[i * m];
  GradientBoostedRegressor single(cfg);
  single.fit(x, column);

  // Every position in the 4-row block and every tail length, at 1-4 blocks.
  for (const Index n : {Index{1}, Index{2}, Index{3}, Index{4}, Index{5}, Index{6}, Index{7},
                        Index{8}, Index{9}, Index{16}, Index{17}, Index{64}}) {
    // Queries extend past the training range, so the edge leaves are hit too.
    Tensor q({n, d});
    for (Index i = 0; i < q.numel(); ++i) q[i] = rng.uniform(-1.5F, 1.5F);

    std::vector<float> rows(static_cast<std::size_t>(n));
    single.predict_rows(q.data(), n, d, rows.data());
    Tensor multi_rows({n, m});
    multi.predict_rows(q.data(), n, d, multi_rows.data());
    for (Index i = 0; i < n; ++i) {
      const float one = single.predict_one(q.data() + i * d);
      EXPECT_EQ(std::memcmp(&rows[static_cast<std::size_t>(i)], &one, sizeof(float)), 0)
          << "GradientBoostedRegressor n=" << n << " row " << i;
      const Tensor multi_one = multi.predict_one(q.row(i));
      EXPECT_EQ(std::memcmp(multi_rows.data() + i * m, multi_one.data(),
                          static_cast<std::size_t>(m) * sizeof(float)), 0)
          << "MultiOutputGbrf n=" << n << " row " << i;
    }
  }
}

TEST(IsolationForest, AveragePathLengthFormula) {
  EXPECT_DOUBLE_EQ(average_path_length(1.0), 0.0);
  EXPECT_DOUBLE_EQ(average_path_length(2.0), 1.0);
  // c(n) grows logarithmically.
  EXPECT_GT(average_path_length(256.0), average_path_length(64.0));
  EXPECT_NEAR(average_path_length(256.0), 2.0 * (std::log(255.0) + 0.5772156649) -
                                              2.0 * 255.0 / 256.0,
              1e-9);
}

TEST(IsolationForest, PlantedOutliersScoreHigher) {
  Rng rng(6);
  const Index n = 512;
  Tensor x({n, 2});
  for (Index i = 0; i < n; ++i) {
    x[i * 2] = rng.normal(0.0F, 1.0F);
    x[i * 2 + 1] = rng.normal(0.0F, 1.0F);
  }
  IsolationForest forest({.n_trees = 100, .subsample = 128, .contamination = 0.1F, .seed = 1});
  forest.fit(x);

  const float inlier = forest.score_one(Tensor::vector({0.0F, 0.0F}));
  const float outlier = forest.score_one(Tensor::vector({8.0F, -8.0F}));
  EXPECT_GT(outlier, inlier);
  EXPECT_GT(outlier, 0.6F);   // clearly anomalous per the iForest scale
  EXPECT_LT(inlier, 0.55F);
  EXPECT_TRUE(forest.is_anomaly(Tensor::vector({8.0F, -8.0F})));
  EXPECT_FALSE(forest.is_anomaly(Tensor::vector({0.0F, 0.0F})));
}

TEST(IsolationForest, ScoresAreInUnitInterval) {
  Rng rng(7);
  const Tensor x = Tensor::randn({300, 3}, rng);
  IsolationForest forest({.n_trees = 50, .subsample = 64, .contamination = 0.1F, .seed = 2});
  forest.fit(x);
  const Tensor scores = forest.score(x);
  EXPECT_GT(scores.min(), 0.0F);
  EXPECT_LT(scores.max(), 1.0F);
}

TEST(IsolationForest, ThresholdMatchesContamination) {
  Rng rng(8);
  const Tensor x = Tensor::randn({1000, 2}, rng);
  IsolationForest forest({.n_trees = 50, .subsample = 128, .contamination = 0.1F, .seed = 3});
  forest.fit(x);
  const Tensor scores = forest.score(x);
  Index above = 0;
  for (Index i = 0; i < scores.numel(); ++i)
    if (scores[i] > forest.threshold()) ++above;
  // ~10% of training points flagged (tolerance for ties).
  EXPECT_NEAR(static_cast<double>(above) / 1000.0, 0.1, 0.03);
}

TEST(IsolationForest, ConfigValidationAndErrors) {
  EXPECT_THROW(IsolationForest({.n_trees = 0}), Error);
  EXPECT_THROW(IsolationForest({.subsample = 1}), Error);
  EXPECT_THROW(IsolationForest({.contamination = 0.7F}), Error);
  IsolationForest forest;
  EXPECT_THROW(forest.score_one(Tensor::vector({1.0F})), Error);
  EXPECT_THROW(forest.fit(Tensor({1, 2})), Error);
}

TEST(IsolationForest, DeterministicWithSeed) {
  Rng rng(9);
  const Tensor x = Tensor::randn({256, 2}, rng);
  IsolationForestConfig cfg{.n_trees = 20, .subsample = 64, .contamination = 0.1F, .seed = 77};
  IsolationForest a(cfg);
  IsolationForest b(cfg);
  a.fit(x);
  b.fit(x);
  const Tensor q = Tensor::vector({0.5F, -0.5F});
  EXPECT_FLOAT_EQ(a.score_one(q), b.score_one(q));
}

}  // namespace
}  // namespace varade::trees
