// Optimizer, gradient clipping and serialization tests.
#include <gtest/gtest.h>

#include <sstream>

#include "varade/nn/layers.hpp"
#include "varade/nn/loss.hpp"
#include "varade/nn/optimizer.hpp"
#include "varade/nn/serialize.hpp"

namespace varade {
namespace {

// Minimal 1-parameter quadratic problem: minimise (w - 3)^2.
struct Quadratic {
  nn::Parameter w{"w", Tensor::vector({0.0F})};

  float loss_and_grad() {
    const float diff = w.value[0] - 3.0F;
    w.grad[0] = 2.0F * diff;
    return diff * diff;
  }
};

TEST(Adam, ConvergesOnQuadratic) {
  Quadratic q;
  nn::Adam opt(0.1F);
  for (int i = 0; i < 300; ++i) {
    q.loss_and_grad();
    opt.step({&q.w});
  }
  EXPECT_NEAR(q.w.value[0], 3.0F, 1e-2);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Quadratic q;
  nn::Adam opt(0.5F);
  q.loss_and_grad();
  opt.step({&q.w});
  EXPECT_NEAR(q.w.value[0], 0.5F, 1e-3);
}

TEST(Adam, RejectsBadHyperparameters) {
  EXPECT_THROW(nn::Adam(-1.0F), Error);
  EXPECT_THROW(nn::Adam(0.1F, 1.0F), Error);
  EXPECT_THROW(nn::Adam(0.1F, 0.9F, 1.5F), Error);
}

TEST(ClipGradNorm, ScalesDownOnlyWhenAboveLimit) {
  nn::Parameter a{"a", Tensor::vector({0.0F, 0.0F})};
  a.grad = Tensor::vector({3.0F, 4.0F});  // norm 5
  const float norm = nn::clip_grad_norm({&a}, 10.0F);
  EXPECT_NEAR(norm, 5.0F, 1e-5);
  EXPECT_NEAR(a.grad[0], 3.0F, 1e-6);  // untouched

  const float norm2 = nn::clip_grad_norm({&a}, 1.0F);
  EXPECT_NEAR(norm2, 5.0F, 1e-5);
  EXPECT_NEAR(a.grad.norm(), 1.0F, 1e-5);  // rescaled to the limit
}

TEST(ClipGradNorm, GlobalAcrossParameters) {
  nn::Parameter a{"a", Tensor::vector({0.0F})};
  nn::Parameter b{"b", Tensor::vector({0.0F})};
  a.grad = Tensor::vector({3.0F});
  b.grad = Tensor::vector({4.0F});
  nn::clip_grad_norm({&a, &b}, 1.0F);
  const float total = std::sqrt(a.grad[0] * a.grad[0] + b.grad[0] * b.grad[0]);
  EXPECT_NEAR(total, 1.0F, 1e-5);
}

TEST(TrainingLoop, LinearRegressionEndToEnd) {
  // Fit y = 2x - 1 with a Linear layer and Adam.
  Rng rng(42);
  nn::Linear model(1, 1, rng);
  nn::Adam opt(0.05F);
  Tensor x({16, 1});
  Tensor y({16, 1});
  for (Index i = 0; i < 16; ++i) {
    x[i] = static_cast<float>(i) / 8.0F - 1.0F;
    y[i] = 2.0F * x[i] - 1.0F;
  }
  float final_loss = 1e9F;
  for (int epoch = 0; epoch < 400; ++epoch) {
    model.zero_grad();
    const Tensor pred = model.forward(x);
    const nn::LossResult loss = nn::mse_loss(pred, y);
    model.backward(loss.grad);
    opt.step(model.parameters());
    final_loss = loss.value;
  }
  EXPECT_LT(final_loss, 1e-4F);
  EXPECT_NEAR(model.weight().value[0], 2.0F, 0.05F);
  EXPECT_NEAR(model.bias().value[0], -1.0F, 0.05F);
}

TEST(Serialize, RoundTripRestoresWeights) {
  Rng rng(7);
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 4, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(4, 2, rng);

  std::stringstream buffer;
  nn::save_weights(net.parameters(), buffer);

  // Perturb, then restore.
  for (nn::Parameter* p : net.parameters()) p->value += 1.0F;
  const Tensor x = Tensor::randn({2, 3}, rng);
  nn::load_weights(net.parameters(), buffer);

  nn::Sequential ref;
  Rng rng2(7);
  ref.emplace<nn::Linear>(3, 4, rng2);
  ref.emplace<nn::ReLU>();
  ref.emplace<nn::Linear>(4, 2, rng2);
  EXPECT_TRUE(allclose(net.forward(x), ref.forward(x), 1e-6F));
}

TEST(Serialize, RejectsCorruptedStream) {
  Rng rng(7);
  nn::Sequential net;
  net.emplace<nn::Linear>(2, 2, rng);

  std::stringstream buffer;
  nn::save_weights(net.parameters(), buffer);
  std::string data = buffer.str();

  // Bad magic.
  std::string bad = data;
  bad[0] = 'X';
  std::stringstream bad_stream(bad);
  EXPECT_THROW(nn::load_weights(net.parameters(), bad_stream), Error);

  // Truncated.
  std::stringstream truncated(data.substr(0, data.size() / 2));
  EXPECT_THROW(nn::load_weights(net.parameters(), truncated), Error);
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Rng rng(7);
  nn::Sequential small;
  small.emplace<nn::Linear>(2, 2, rng);
  std::stringstream buffer;
  nn::save_weights(small.parameters(), buffer);

  nn::Sequential bigger;
  bigger.emplace<nn::Linear>(3, 2, rng);
  EXPECT_THROW(nn::load_weights(bigger.parameters(), buffer), Error);
}

}  // namespace
}  // namespace varade
