#include "varade/core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "varade/nn/optimizer.hpp"

namespace varade::core {

namespace {

constexpr Index kBatchSize = 32;
constexpr float kGradClip = 5.0F;  // global L2 norm; guards LSTM training

/// Splits indices 0..n-1 into shuffled batches (the last may be short).
std::vector<std::vector<Index>> make_batches(Index n, Rng& rng) {
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::shuffle(order.begin(), order.end(), rng.engine());

  std::vector<std::vector<Index>> batches;
  for (Index start = 0; start < n; start += kBatchSize) {
    const Index end = std::min(n, start + kBatchSize);
    batches.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(start),
                         order.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

}  // namespace

std::vector<float> train_minibatches(const data::MultivariateSeries& train,
                                     const TrainSpec& spec,
                                     const std::vector<nn::Parameter*>& params, Rng& rng,
                                     const TrainStep& step) {
  check(train.length() > spec.windows.window + 1,
        spec.detector + " training series shorter than one window");
  const data::WindowDataset dataset(train, spec.windows);
  check(dataset.size() > 0, "no training windows available");

  nn::Adam optimizer(spec.learning_rate);
  std::vector<float> history;
  for (int epoch = 0; epoch < spec.epochs; ++epoch) {
    double epoch_loss = 0.0;
    long n_batches = 0;
    for (const auto& batch : make_batches(dataset.size(), rng)) {
      Tensor contexts;
      Tensor targets;
      dataset.gather(batch, contexts, targets);

      for (nn::Parameter* p : params) p->grad.zero();
      const float loss = step(contexts, targets);
      check(std::isfinite(loss), spec.detector + " training diverged (non-finite loss)");
      nn::clip_grad_norm(params, kGradClip);
      optimizer.step(params);

      epoch_loss += loss;
      ++n_batches;
    }
    history.push_back(static_cast<float>(epoch_loss / std::max(1L, n_batches)));
  }
  return history;
}

}  // namespace varade::core
