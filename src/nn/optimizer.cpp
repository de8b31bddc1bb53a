#include "varade/nn/optimizer.hpp"

#include <cmath>

namespace varade::nn {

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  check(lr > 0.0F, "Adam learning rate must be positive");
  check(beta1 >= 0.0F && beta1 < 1.0F && beta2 >= 0.0F && beta2 < 1.0F,
        "Adam betas must be in [0, 1)");
}

void Adam::step(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) {
    auto [it, inserted] = state_.try_emplace(p);
    State& s = it->second;
    if (inserted) {
      s.m = Tensor(p->value.shape());
      s.v = Tensor(p->value.shape());
    }
    s.t += 1;
    const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(s.t));
    const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(s.t));
    const Index n = p->value.numel();
    for (Index i = 0; i < n; ++i) {
      const float g = p->grad[i];
      s.m[i] = beta1_ * s.m[i] + (1.0F - beta1_) * g;
      s.v[i] = beta2_ * s.v[i] + (1.0F - beta2_) * g * g;
      const float m_hat = s.m[i] / bc1;
      const float v_hat = s.v[i] / bc2;
      p->value[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm) {
  check(max_norm > 0.0F, "clip_grad_norm requires positive max_norm");
  double total = 0.0;
  for (const Parameter* p : params) {
    const float n = p->grad.norm();
    total += static_cast<double>(n) * n;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / norm;
    for (Parameter* p : params) p->grad *= scale;
  }
  return norm;
}

}  // namespace varade::nn
