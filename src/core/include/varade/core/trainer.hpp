// The one training loop of the neural detectors (VARADE, AR-LSTM, AE).
//
// Every neural detector trains the same way: shuffled minibatches of 32
// windows, Adam at the detector's learning rate, gradients clipped to a
// global L2 norm of 5 before each update (the paper trains all neural models
// with Adam at a fixed rate, section 3.4). The detector supplies only its
// model's parameters and one step: forward, loss, backward.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "varade/data/timeseries.hpp"
#include "varade/data/window.hpp"
#include "varade/nn/module.hpp"
#include "varade/tensor/rng.hpp"
#include "varade/tensor/tensor.hpp"

namespace varade::core {

/// What to train on and for how long.
struct TrainSpec {
  std::string detector;        // names the detector in errors
  data::WindowConfig windows;  // training window and hop between windows
  int epochs = 1;
  float learning_rate = 0.0F;
};

/// One minibatch step: forward the [B, C, T] contexts, compute the loss
/// against them or the [B, C] next-step targets, backpropagate into the
/// (zeroed) parameter gradients, and return the loss.
using TrainStep = std::function<float(const Tensor& contexts, const Tensor& targets)>;

/// Trains `params` over the windows of `train`: each epoch shuffles the
/// windows with `rng` into batches, and each batch zeroes the gradients, runs
/// `step`, clips the gradients and takes one Adam step. Returns the mean loss
/// of each epoch. Throws, naming the detector, on a series shorter than one
/// window or a non-finite loss.
std::vector<float> train_minibatches(const data::MultivariateSeries& train,
                                     const TrainSpec& spec,
                                     const std::vector<nn::Parameter*>& params, Rng& rng,
                                     const TrainStep& step);

}  // namespace varade::core
