#include "varade/core/varade.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "varade/core/trainer.hpp"
#include "varade/nn/exp.hpp"
#include "varade/nn/serialize.hpp"

namespace varade::core {

namespace {

constexpr char kDetectorMagic[4] = {'V', 'R', 'D', 'D'};
constexpr std::uint32_t kDetectorVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  check(static_cast<bool>(in), "unexpected end of detector file");
  return v;
}

}  // namespace

Index varade_layer_count(Index window) {
  check(window >= 8, "VARADE window must be >= 8");
  check((window & (window - 1)) == 0, "VARADE window must be a power of two");
  // Halve the time dimension until it reaches 2: log2(T) - 1 layers
  // (paper: T=512 -> 8 conv layers).
  Index n = 0;
  for (Index t = window; t > 2; t /= 2) ++n;
  return n;
}

VaradeModel::VaradeModel(Index in_channels, const VaradeConfig& config, Rng& rng)
    : in_channels_(in_channels),
      window_(config.window),
      n_conv_layers_(varade_layer_count(config.window)) {
  check(in_channels > 0, "VARADE needs at least one input channel");
  check(config.base_channels > 0, "base_channels must be positive");

  // Conv cascade: kernel 2 / stride 2, feature maps doubling every 2 layers.
  Index ch_in = in_channels;
  Index ch_out = config.base_channels;
  for (Index layer = 0; layer < n_conv_layers_; ++layer) {
    if (layer > 0 && layer % 2 == 0 && config.channel_doubling) ch_out *= 2;
    convs_.push_back(&trunk_.emplace<nn::Conv1d>(ch_in, ch_out, 2, 2, 0, rng));
    trunk_.emplace<nn::ReLU>();
    ch_in = ch_out;
  }
  trunk_.emplace<nn::Flatten>();

  const Index feature_dim = ch_in * 2;  // final time dimension is 2
  mu_head_ = std::make_unique<nn::Linear>(feature_dim, in_channels, rng);
  logvar_head_ = std::make_unique<nn::Linear>(feature_dim, in_channels, rng);
}

VaradeModel::Output VaradeModel::forward(const Tensor& x) {
  check(x.rank() == 3 && x.dim(1) == in_channels_ && x.dim(2) == window_,
        "VARADE forward expects [N, " + std::to_string(in_channels_) + ", " +
            std::to_string(window_) + "], got " + shape_to_string(x.shape()));
  const Tensor features = trunk_.forward(x);
  Output out;
  out.mu = mu_head_->forward(features);
  out.logvar = logvar_head_->forward(features);
  return out;
}

VaradeModel::Output VaradeModel::forward_inference(const Tensor& x) {
  const Tensor features = trunk_inference(x);
  Output out;
  out.mu = mu_head_->forward_inference(features);
  out.logvar = logvar_head_->forward_inference(features);
  return out;
}

Tensor VaradeModel::logvar_inference(const Tensor& x) {
  return logvar_head_->forward_inference(trunk_inference(x));
}

Tensor VaradeModel::trunk_inference(const Tensor& x) {
  check(x.rank() == 3 && x.dim(1) == in_channels_ && x.dim(2) == window_,
        "VARADE forward expects [N, " + std::to_string(in_channels_) + ", " +
            std::to_string(window_) + "], got " + shape_to_string(x.shape()));
  return trunk_.forward_inference(x);
}

void VaradeModel::backward(const Tensor& grad_mu, const Tensor& grad_logvar) {
  Tensor grad_features = mu_head_->backward(grad_mu);
  grad_features += logvar_head_->backward(grad_logvar);
  trunk_.backward_params(grad_features);
}

std::vector<nn::Parameter*> VaradeModel::parameters() {
  std::vector<nn::Parameter*> ps = trunk_.parameters();
  for (nn::Parameter* p : mu_head_->parameters()) ps.push_back(p);
  for (nn::Parameter* p : logvar_head_->parameters()) ps.push_back(p);
  return ps;
}

void VaradeModel::zero_grad() {
  for (nn::Parameter* p : parameters()) p->grad.zero();
}

long VaradeModel::num_params() {
  long n = 0;
  for (nn::Parameter* p : parameters()) n += p->value.numel();
  return n;
}

long VaradeModel::flops() const {
  const Shape in{in_channels_, window_};
  long total = trunk_.flops(in);
  const Shape feat = trunk_.output_shape(in);
  total += mu_head_->flops(feat) + logvar_head_->flops(feat);
  return total;
}

VaradeDetector::VaradeDetector(VaradeConfig config) : config_(config) {
  check(config_.lambda >= 0.0F, "KL weight lambda must be non-negative");
  check(config_.epochs >= 1, "epochs must be >= 1");
}

void VaradeDetector::fit(const data::MultivariateSeries& train) {
  Rng rng(config_.seed);
  auto model = std::make_unique<VaradeModel>(train.n_channels(), config_, rng);
  std::vector<float> history = train_minibatches(
      train, {name(), {config_.window, config_.train_stride}, config_.epochs, config_.learning_rate},
      model->parameters(), rng, [&](const Tensor& contexts, const Tensor& targets) {
        const VaradeModel::Output out = model->forward(contexts);
        const nn::VariationalLossResult loss =
            nn::elbo_loss(out.mu, out.logvar, targets, config_.lambda);
        model->backward(loss.grad_mu, loss.grad_logvar);
        return loss.value;
      });
  install(std::move(model));
  loss_history_ = std::move(history);
}

void VaradeDetector::install(std::unique_ptr<VaradeModel> model) {
  const Index layers = model->n_layers();
  std::vector<StreamLevel> levels;
  Index offset = 0;
  Index max_channels = 0;
  for (Index level = 0; level <= layers; ++level) {
    const Index channels =
        level == 0 ? model->in_channels() : model->conv(level - 1).out_channels();
    // Conv k reads level k's columns 2^k apart, so the ring keeps the last
    // 2^k; the head reads the top level's columns 2^L apart *after* the
    // newest one is stored, so the top ring keeps one more.
    const Index slots = (Index{1} << level) + (level == layers ? 1 : 0);
    levels.push_back({offset, channels, slots});
    offset += channels * slots;
    max_channels = std::max(max_channels, channels);
  }
  std::vector<nn::PackedWeights> convs;
  for (Index l = 0; l < layers; ++l) convs.push_back(model->conv(l).pack());
  nn::PackedWeights logvar = model->logvar_head().pack();

  // Nothing below throws: the model and its packed weights change together.
  model_ = std::move(model);
  stream_levels_ = std::move(levels);
  packed_convs_ = std::move(convs);
  packed_logvar_ = std::move(logvar);
  stream_floats_ = offset;
  stream_max_channels_ = max_channels;
}

float VaradeDetector::score_from_logvar(const float* logvar, Index n) {
  // Mean predicted variance (section 3.2: "the variance is directly used as
  // an anomaly score").
  float score = 0.0F;
  nn::mean_exp_rows(logvar, 1, n, &score);
  return score;
}

float VaradeDetector::forecast_error_score(const Tensor& context, const Tensor& observed) {
  check(fitted(), "VARADE scoring before fit");
  const Tensor batch = context.reshaped({1, context.dim(0), context.dim(1)});
  const VaradeModel::Output out = model_->forward_inference(batch);
  double acc = 0.0;
  for (Index i = 0; i < out.mu.numel(); ++i) {
    const double d = static_cast<double>(out.mu[i]) - observed[i];
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

void VaradeDetector::score_batch(const Tensor& contexts, const Tensor& observed, float* out) {
  check(fitted(), "VARADE scoring before fit");
  check_batch_args(contexts, observed);
  check_batch_channels(contexts, model_->in_channels());
  const Index channels = contexts.dim(1);
  if (contexts.dim(0) == 0) return;
  const Tensor logvar = model_->logvar_inference(contexts);
  nn::mean_exp_rows(logvar.data(), contexts.dim(0), channels, out);
}

Index VaradeDetector::stream_state_floats(Index channels) const {
  check(fitted(), "VARADE stream state before fit");
  if (channels != model_->in_channels())
    fail(name(), " stream state expects ", model_->in_channels(), " channels, got ", channels);
  return stream_floats_;
}

void VaradeDetector::advance_streams(const StreamBatch& batch, StreamScratch& scratch) {
  const Index rows = batch.rows;
  const Index layers = model_->n_layers();
  // [rows, C, 2] tap pairs, then [rows, C] new columns.
  scratch.floats.resize(static_cast<std::size_t>(rows * 3 * stream_max_channels_));
  float* pairs = scratch.floats.data();
  float* column = pairs + rows * 2 * stream_max_channels_;
  const float* fresh = batch.samples;  // level 0's new column: the sample
  for (Index l = 0; l < layers; ++l) {
    const StreamLevel& in = stream_levels_[static_cast<std::size_t>(l)];
    // Pair each row's new level-l column with the one 2^l samples back, and
    // store the new column in the slot the old one leaves.
    for (Index r = 0; r < rows; ++r) {
      float* slot = batch.states[r] + in.offset + batch.seen[r] % in.slots * in.channels;
      const float* x = fresh + r * in.channels;
      float* pair = pairs + r * 2 * in.channels;
      for (Index c = 0; c < in.channels; ++c) {
        pair[2 * c] = slot[c];
        pair[2 * c + 1] = x[c];
      }
      std::copy_n(x, in.channels, slot);
    }
    const nn::Conv1d& conv = model_->conv(l);
    conv.forward_packed(packed_convs_[static_cast<std::size_t>(l)], pairs, rows, 2, column);
    // nn::ReLU's expression.
    const Index n = rows * conv.out_channels();
    for (Index i = 0; i < n; ++i) column[i] = column[i] > 0.0F ? column[i] : 0.0F;
    fresh = column;
  }
  const StreamLevel& top = stream_levels_.back();
  for (Index r = 0; r < rows; ++r)
    std::copy_n(fresh + r * top.channels, top.channels,
                batch.states[r] + top.offset + batch.seen[r] % top.slots * top.channels);
}

void VaradeDetector::score_streams(const StreamBatch& batch, StreamScratch& scratch, float* out) {
  const Index rows = batch.rows;
  const Index channels = model_->in_channels();
  const StreamLevel& top = stream_levels_.back();
  const Index span = Index{1} << model_->n_layers();  // the head's tap distance 2^L
  // [rows, C_L, 2] head features (Flatten's channel-major order), then
  // [rows, C] log-variances.
  scratch.floats.resize(static_cast<std::size_t>(rows * (2 * top.channels + channels)));
  float* features = scratch.floats.data();
  float* logvar = features + rows * 2 * top.channels;
  for (Index r = 0; r < rows; ++r) {
    const Index newest = batch.seen[r] - 1;  // the last folded sample
    const float* ring = batch.states[r] + top.offset;
    const float* older = ring + (newest - span) % top.slots * top.channels;
    const float* latest = ring + newest % top.slots * top.channels;
    float* f = features + r * 2 * top.channels;
    for (Index c = 0; c < top.channels; ++c) {
      f[2 * c] = older[c];
      f[2 * c + 1] = latest[c];
    }
  }
  model_->logvar_head().forward_packed(packed_logvar_, features, rows, logvar);
  nn::mean_exp_rows(logvar, rows, channels, out);
}

std::unique_ptr<AnomalyDetector> VaradeDetector::clone_fitted() const {
  check(fitted(), "cannot clone an unfitted VARADE detector");
  auto clone = std::make_unique<VaradeDetector>(config_);
  Rng rng(config_.seed);
  auto model = std::make_unique<VaradeModel>(model_->in_channels(), config_, rng);
  nn::copy_parameter_values(model_->parameters(), model->parameters());
  clone->install(std::move(model));
  clone->loss_history_ = loss_history_;
  return clone;
}

void VaradeDetector::save(const std::string& path) const {
  check(fitted(), "cannot save an unfitted VARADE detector");
  std::ofstream f(path, std::ios::binary);
  check(f.is_open(), "cannot open for writing: " + path);
  f.write(kDetectorMagic, sizeof(kDetectorMagic));
  write_pod(f, kDetectorVersion);
  write_pod(f, static_cast<std::int64_t>(model_->in_channels()));
  write_pod(f, static_cast<std::int64_t>(config_.window));
  write_pod(f, static_cast<std::int64_t>(config_.base_channels));
  write_pod(f, config_.lambda);
  nn::save_weights(model_->parameters(), f);
  check(static_cast<bool>(f), "failed writing detector file");
}

void VaradeDetector::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  check(f.is_open(), "cannot open for reading: " + path);
  char magic[4];
  f.read(magic, sizeof(magic));
  check(static_cast<bool>(f) && std::memcmp(magic, kDetectorMagic, 4) == 0,
        "not a VARADE detector file (bad magic)");
  const auto version = read_pod<std::uint32_t>(f);
  check(version == kDetectorVersion,
        "unsupported detector file version " + std::to_string(version));
  const auto in_channels = static_cast<Index>(read_pod<std::int64_t>(f));
  check(in_channels > 0 && in_channels < (1 << 20), "implausible channel count");
  // Read into locals and commit only once the weights are in: a failed load
  // leaves the detector as it was.
  VaradeConfig config = config_;
  config.window = static_cast<Index>(read_pod<std::int64_t>(f));
  config.base_channels = static_cast<Index>(read_pod<std::int64_t>(f));
  config.lambda = read_pod<float>(f);
  check(config.window <= (1 << 20), "implausible window");
  check(config.base_channels > 0 && config.base_channels < (1 << 16),
        "implausible base channel count");

  Rng rng(config.seed);
  auto model = std::make_unique<VaradeModel>(in_channels, config, rng);
  nn::load_weights(model->parameters(), f);
  install(std::move(model));
  config_ = config;
  loss_history_.clear();
}

edge::ModelCost VaradeDetector::cost() const {
  check(fitted(), "VARADE cost before fit");
  edge::ModelCost cost;
  cost.name = name();
  cost.flops = static_cast<double>(model_->flops());
  long param_bytes = 0;
  for (nn::Parameter* p : const_cast<VaradeModel*>(model_.get())->parameters())
    param_bytes += p->value.numel() * static_cast<long>(sizeof(float));
  cost.param_bytes = static_cast<double>(param_bytes);
  // Activations shrink geometrically; bounded by 2x the first conv output.
  cost.activation_bytes =
      2.0 * static_cast<double>(config_.base_channels) * static_cast<double>(config_.window) / 2.0 *
      sizeof(float);
  cost.n_ops = 3 * static_cast<int>(model_->n_layers()) + 6;  // conv/bias/relu + heads
  cost.runs_on_gpu = true;
  cost.parallel_efficiency = 0.85;  // dense conv kernels map well to the GPU
  cost.preprocess_flops =
      static_cast<double>(model_->in_channels()) * static_cast<double>(config_.window) * 4.0;
  return cost;
}

}  // namespace varade::core
