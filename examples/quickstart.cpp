// Quickstart: the minimal VARADE workflow in ~40 lines of library calls.
//
//  1. simulate a robotic work cell and record normal behaviour,
//  2. record a collision experiment with ground-truth labels,
//  3. normalise with training statistics, train VARADE,
//  4. score the test stream with the predicted variance and evaluate AUC-ROC.
#include <cstdio>
#include <vector>

#include "varade/core/varade.hpp"
#include "varade/data/normalize.hpp"
#include "varade/eval/metrics.hpp"
#include "varade/robot/simulator.hpp"

int main() {
  using namespace varade;

  // --- 1. record normal behaviour -------------------------------------------
  robot::SimulatorConfig sim_cfg;
  sim_cfg.sample_rate_hz = 50.0;
  sim_cfg.seed = 7;
  sim_cfg.noise_seed = 71;
  robot::RobotCellSimulator train_sim(sim_cfg);
  const data::MultivariateSeries train_raw = train_sim.record(/*duration_s=*/240.0);
  std::printf("recorded %ld training samples x %ld channels\n", train_raw.length(),
              train_raw.n_channels());

  // --- 2. record a collision experiment -------------------------------------
  sim_cfg.noise_seed = 72;
  robot::RobotCellSimulator test_sim(sim_cfg);
  robot::CollisionScheduleConfig collisions;
  collisions.n_events = 10;
  collisions.experiment_duration = 100.0;
  collisions.seed = 73;
  test_sim.set_collision_schedule(robot::CollisionSchedule(collisions));
  const data::MultivariateSeries test_raw = test_sim.record(100.0);
  std::printf("recorded %ld test samples, %ld anomalous\n", test_raw.length(),
              test_raw.count_anomalous_samples());

  // --- 3. normalise and train ------------------------------------------------
  data::MinMaxNormalizer normalizer;
  normalizer.fit(train_raw);
  const data::MultivariateSeries train = normalizer.transform(train_raw);
  const data::MultivariateSeries test = normalizer.transform(test_raw);

  core::VaradeConfig cfg;
  cfg.window = 32;
  cfg.base_channels = 16;
  cfg.lambda = 1.0F;
  cfg.epochs = 16;
  cfg.learning_rate = 1e-3F;
  cfg.train_stride = 4;
  core::VaradeDetector detector(cfg);
  std::printf("training VARADE (%ld-sample window)...\n", cfg.window);
  detector.fit(train);
  const std::vector<float>& losses = detector.loss_history();
  for (std::size_t epoch = 0; epoch < losses.size(); ++epoch)
    std::printf("[VARADE] epoch %zu/%zu  loss %.5f\n", epoch + 1, losses.size(),
                static_cast<double>(losses[epoch]));

  // --- 4. score the stream and evaluate --------------------------------------
  const core::SeriesScores scores = detector.score_series(test, /*stride=*/2);
  const double auc = eval::auc_roc(scores.scores, scores.labels);
  std::printf("\nVARADE variance-score AUC-ROC: %.3f (%zu scored samples, %.2f ms/inference)\n",
              auc, scores.scores.size(), scores.mean_latency_ms);

  // Event-level view: how many of the collision events were caught at the
  // best-F1 threshold.
  const eval::BestF1 best = eval::best_f1(scores.scores, scores.labels);
  const eval::EventStats events = eval::event_detection(scores.scores, scores.labels,
                                                        best.threshold);
  std::printf("best F1 %.3f at threshold %.4f; detected %ld / %ld collision events\n", best.f1,
              best.threshold, events.detected_events, events.total_events);
  return 0;
}
