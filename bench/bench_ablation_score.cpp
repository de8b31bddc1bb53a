// Ablation: the anomaly-score function. The paper's central design claim
// (section 3.1) is that an edge-sized autoregressive model cannot forecast
// well enough for the conventional euclidean-norm residual score, and that
// the predicted *variance* should be used instead. This bench trains one
// VARADE model and evaluates both scores from it, plus the
// standardised-variance variant, side by side.
//
// Usage: bench_ablation_score [--quick]
#include "bench_common.hpp"

#include <cmath>

#include "varade/data/window.hpp"
#include "varade/eval/metrics.hpp"

int main(int argc, char** argv) {
  using namespace varade;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  core::Profile profile = bench::select_profile(opt);

  std::printf("bench_ablation_score: variance vs forecast-error scoring (profile '%s')\n",
              profile.name.c_str());
  const core::ExperimentData& data = bench::shared_experiment(profile);

  core::VaradeDetector det(profile.varade);
  std::printf("training VARADE...\n");
  det.fit(data.train);

  // Per-channel log-variance statistics on the training data (for the
  // standardised variant).
  const Index c_count = data.train.n_channels();
  std::vector<double> mean(static_cast<std::size_t>(c_count), 0.0);
  std::vector<double> m2(static_cast<std::size_t>(c_count), 0.0);
  long n_stats = 0;
  for (Index t = profile.varade.window; t < data.train.length(); t += 8) {
    const Tensor ctx = data::extract_context(data.train, t - 1, profile.varade.window);
    const auto out = det.model()->forward(ctx.reshaped({1, c_count, profile.varade.window}));
    ++n_stats;
    for (Index c = 0; c < c_count; ++c) {
      const double lv = out.logvar[c];
      const double delta = lv - mean[static_cast<std::size_t>(c)];
      mean[static_cast<std::size_t>(c)] += delta / n_stats;
      m2[static_cast<std::size_t>(c)] += delta * (lv - mean[static_cast<std::size_t>(c)]);
    }
  }
  std::vector<double> stddev(static_cast<std::size_t>(c_count));
  for (Index c = 0; c < c_count; ++c)
    stddev[static_cast<std::size_t>(c)] =
        std::sqrt(m2[static_cast<std::size_t>(c)] / std::max(1L, n_stats - 1)) + 1e-6;

  std::vector<float> paper_scores;
  std::vector<float> zlogvar_scores;
  std::vector<float> forecast_scores;
  std::vector<int> labels;
  Tensor observed({c_count});
  for (Index t = profile.varade.window; t < data.test.length(); t += profile.eval_stride) {
    const Tensor ctx = data::extract_context(data.test, t - 1, profile.varade.window);
    const float* s = data.test.sample(t);
    for (Index ch = 0; ch < c_count; ++ch) observed[ch] = s[ch];

    const Tensor logvar =
        det.model()->logvar_inference(ctx.reshaped({1, c_count, profile.varade.window}));
    double z_sum = 0.0;
    for (Index ch = 0; ch < c_count; ++ch)
      z_sum += (logvar[ch] - mean[static_cast<std::size_t>(ch)]) /
               stddev[static_cast<std::size_t>(ch)];
    paper_scores.push_back(core::VaradeDetector::score_from_logvar(logvar.data(), c_count));
    zlogvar_scores.push_back(static_cast<float>(z_sum / static_cast<double>(c_count)));
    forecast_scores.push_back(det.forecast_error_score(ctx, observed));
    labels.push_back(data.test.label(t));
  }

  std::printf("\n%-34s %10s\n", "Score function (same trained model)", "AUC-ROC");
  bench::print_rule(48);
  std::printf("%-34s %10.3f\n", "predicted variance (paper)",
              eval::auc_roc(paper_scores, labels));
  std::printf("%-34s %10.3f\n", "standardised log-variance",
              eval::auc_roc(zlogvar_scores, labels));
  std::printf("%-34s %10.3f\n", "forecast-error euclidean norm",
              eval::auc_roc(forecast_scores, labels));
  std::printf("\npaper claim (section 3.1): compact edge models fail to forecast accurately,\n"
              "so the variance of the predicted distribution is used as the anomaly score.\n");
  return 0;
}
