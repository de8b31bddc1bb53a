#include "varade/core/profiles.hpp"

namespace varade::core {

Profile repro_profile() {
  Profile p;
  p.name = "repro";
  p.sample_rate_hz = 50.0;
  p.train_duration_s = 300.0;
  p.test_duration_s = 240.0;
  p.n_collisions = 24;
  p.seed = 42;
  p.eval_stride = 4;

  // VARADE, scaled: the layer-count rule (halve until T=2) and the
  // channel-doubling rule are preserved; learning rate is raised to fit the
  // small epoch budget (the paper's 1e-5 assumes hours of training). The KL
  // weight lambda = 1 is this reproduction's choice, not the paper's 0.01;
  // bench_ablation_lambda sweeps it, and the ROADMAP's repro-fidelity item
  // records why it is still open.
  p.varade.window = 32;
  p.varade.base_channels = 16;
  p.varade.lambda = 1.0F;
  p.varade.epochs = 24;
  p.varade.learning_rate = 1e-3F;
  p.varade.train_stride = 4;
  p.varade.seed = p.seed + 1;

  p.ar_lstm.window = 32;
  p.ar_lstm.hidden = 48;
  p.ar_lstm.n_layers = 2;
  p.ar_lstm.epochs = 3;
  p.ar_lstm.learning_rate = 1e-3F;
  p.ar_lstm.train_stride = 8;
  p.ar_lstm.seed = p.seed + 2;

  p.gbrf.window = 64;
  p.gbrf.feature_steps = 4;
  p.gbrf.forest.n_trees = 10;
  p.gbrf.forest.learning_rate = 0.3F;
  p.gbrf.forest.subsample = 0.5F;
  p.gbrf.forest.tree.max_depth = 3;
  p.gbrf.forest.tree.max_features = 16;
  p.gbrf.forest.seed = p.seed + 3;

  p.ae.window = 64;
  p.ae.base_channels = 16;
  p.ae.epochs = 6;
  p.ae.learning_rate = 1e-3F;
  p.ae.train_stride = 4;
  p.ae.seed = p.seed + 4;

  p.knn.max_reference_points = 2000;
  p.knn.knn.k = 5;
  p.knn.knn.score = knn::KnnScore::kMaxDistance;
  p.knn.knn.seed = p.seed + 5;

  p.iforest.forest.n_trees = 100;
  p.iforest.forest.subsample = 256;
  p.iforest.forest.contamination = 0.1F;
  p.iforest.forest.seed = p.seed + 6;
  return p;
}

Profile paper_profile() {
  Profile p;
  p.name = "paper";
  p.sample_rate_hz = 200.0;          // section 4.1
  p.train_duration_s = 390.0 * 60.0; // section 4.3: 390 minutes
  p.test_duration_s = 82.0 * 60.0;   // section 4.3: 82 minutes
  p.n_collisions = 125;              // section 4.3
  p.seed = 42;
  p.eval_stride = 1;

  p.varade.window = 512;        // section 3.1
  p.varade.base_channels = 128; // section 3.1
  p.varade.lambda = 0.01F;
  p.varade.epochs = 50;
  p.varade.learning_rate = 1e-5F;  // section 3.4
  p.varade.train_stride = 1;
  p.varade.seed = p.seed + 1;

  p.ar_lstm.window = 512;
  p.ar_lstm.hidden = 256;  // section 3.3
  p.ar_lstm.n_layers = 5;  // section 3.3
  p.ar_lstm.epochs = 50;
  p.ar_lstm.learning_rate = 1e-5F;
  p.ar_lstm.train_stride = 1;
  p.ar_lstm.seed = p.seed + 2;

  p.gbrf.window = 512;
  p.gbrf.feature_steps = 8;
  p.gbrf.forest.n_trees = 30;  // section 3.3
  p.gbrf.forest.learning_rate = 0.3F;
  p.gbrf.forest.subsample = 1.0F;
  p.gbrf.forest.tree.max_depth = 6;
  p.gbrf.forest.tree.max_features = 0;
  p.gbrf.forest.seed = p.seed + 3;

  p.ae.window = 512;
  p.ae.base_channels = 128;
  p.ae.epochs = 50;
  p.ae.learning_rate = 1e-5F;
  p.ae.train_stride = 1;
  p.ae.seed = p.seed + 4;

  p.knn.max_reference_points = 0;  // sklearn keeps the full training set
  p.knn.knn.k = 5;                 // section 3.3
  p.knn.knn.score = knn::KnnScore::kMaxDistance;
  p.knn.knn.seed = p.seed + 5;

  p.iforest.forest.n_trees = 100;       // section 3.3
  p.iforest.forest.subsample = 256;
  p.iforest.forest.contamination = 0.1F;  // section 3.3
  p.iforest.forest.seed = p.seed + 6;
  return p;
}

const std::vector<std::string>& detector_names() {
  static const std::vector<std::string> names = {"AR-LSTM", "GBRF",           "AE",
                                                 "kNN",     "Isolation Forest", "VARADE"};
  return names;
}

std::unique_ptr<AnomalyDetector> make_detector(const Profile& profile, const std::string& name) {
  if (name == "VARADE") return std::make_unique<VaradeDetector>(profile.varade);
  if (name == "AR-LSTM") return std::make_unique<ArLstmDetector>(profile.ar_lstm);
  if (name == "GBRF") return std::make_unique<GbrfDetector>(profile.gbrf);
  if (name == "AE") return std::make_unique<AutoencoderDetector>(profile.ae);
  if (name == "kNN") return std::make_unique<KnnDetector>(profile.knn);
  if (name == "Isolation Forest") return std::make_unique<IForestDetector>(profile.iforest);
  fail("unknown detector '", name, "'");
}

}  // namespace varade::core
