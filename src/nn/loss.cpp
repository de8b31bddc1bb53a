#include "varade/nn/loss.hpp"

#include "varade/nn/exp.hpp"

namespace varade::nn {

LossResult mse_loss(const Tensor& pred, const Tensor& target) {
  check(pred.same_shape(target), "mse_loss shape mismatch: " + shape_to_string(pred.shape()) +
                                     " vs " + shape_to_string(target.shape()));
  check(pred.numel() > 0, "mse_loss on empty tensor");
  const Index n = pred.numel();
  const float inv_n = 1.0F / static_cast<float>(n);
  LossResult r;
  r.grad = Tensor(pred.shape());
  double acc = 0.0;
  for (Index i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    acc += static_cast<double>(d) * d;
    r.grad[i] = 2.0F * d * inv_n;
  }
  r.value = static_cast<float>(acc) * inv_n;
  return r;
}

VariationalLossResult gaussian_nll(const Tensor& mu, const Tensor& logvar, const Tensor& target) {
  check(mu.same_shape(logvar) && mu.same_shape(target), "gaussian_nll shape mismatch");
  check(mu.numel() > 0, "gaussian_nll on empty tensor");
  const Index n = mu.numel();
  const float inv_n = 1.0F / static_cast<float>(n);
  VariationalLossResult r;
  r.grad_mu = Tensor(mu.shape());
  r.grad_logvar = Tensor(mu.shape());
  double acc = 0.0;
  for (Index i = 0; i < n; ++i) {
    const float inv_var = nn::expf(-logvar[i]);
    const float diff = target[i] - mu[i];
    acc += 0.5 * (static_cast<double>(logvar[i]) + static_cast<double>(diff) * diff * inv_var);
    // d/dmu: -(y-mu)/var ; d/dlogvar: 1/2 (1 - (y-mu)^2/var)
    r.grad_mu[i] = -diff * inv_var * inv_n;
    r.grad_logvar[i] = 0.5F * (1.0F - diff * diff * inv_var) * inv_n;
  }
  r.value = static_cast<float>(acc) * inv_n;
  return r;
}

VariationalLossResult kl_standard_normal(const Tensor& mu, const Tensor& logvar) {
  check(mu.same_shape(logvar), "kl_standard_normal shape mismatch");
  check(mu.numel() > 0, "kl_standard_normal on empty tensor");
  const Index n = mu.numel();
  const float inv_n = 1.0F / static_cast<float>(n);
  VariationalLossResult r;
  r.grad_mu = Tensor(mu.shape());
  r.grad_logvar = Tensor(mu.shape());
  double acc = 0.0;
  for (Index i = 0; i < n; ++i) {
    const float var = nn::expf(logvar[i]);
    acc += -0.5 * (1.0 + static_cast<double>(logvar[i]) - static_cast<double>(mu[i]) * mu[i] -
                   static_cast<double>(var));
    // d/dmu: mu ; d/dlogvar: 1/2 (var - 1)
    r.grad_mu[i] = mu[i] * inv_n;
    r.grad_logvar[i] = 0.5F * (var - 1.0F) * inv_n;
  }
  r.value = static_cast<float>(acc) * inv_n;
  return r;
}

VariationalLossResult elbo_loss(const Tensor& mu, const Tensor& logvar, const Tensor& target,
                                float lambda) {
  VariationalLossResult recon = gaussian_nll(mu, logvar, target);
  VariationalLossResult kl = kl_standard_normal(mu, logvar);
  VariationalLossResult r;
  r.value = recon.value + lambda * kl.value;
  r.grad_mu = std::move(recon.grad_mu);
  axpy(lambda, kl.grad_mu, r.grad_mu);
  r.grad_logvar = std::move(recon.grad_logvar);
  axpy(lambda, kl.grad_logvar, r.grad_logvar);
  return r;
}

}  // namespace varade::nn
