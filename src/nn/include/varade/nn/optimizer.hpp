// The optimizer and gradient clipping of core::train_minibatches. The paper
// trains all neural models with Adam at a fixed learning rate of 1e-5
// (section 3.4).
#pragma once

#include <unordered_map>
#include <vector>

#include "varade/nn/module.hpp"

namespace varade::nn {

/// Adam (Kingma & Ba) with bias correction.
class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9F, float beta2 = 0.999F, float eps = 1e-8F);
  /// Applies one update using the gradients currently accumulated in `params`.
  void step(const std::vector<Parameter*>& params);

 private:
  struct State {
    Tensor m;
    Tensor v;
    long t = 0;
  };
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  std::unordered_map<Parameter*, State> state_;
};

/// Clips gradients in-place to a maximum global L2 norm; returns the norm
/// before clipping. A standard guard for LSTM training stability.
float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm);

}  // namespace varade::nn
