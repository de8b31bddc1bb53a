// LSTM tests: shape semantics, gate behaviour, bit parity of both forwards
// with a per-unit scalar reference, and BPTT gradient checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "varade/nn/layers.hpp"
#include "varade/nn/lstm.hpp"

namespace varade {
namespace {

float sigmoid_reference(float v) { return 1.0F / (1.0F + std::exp(-v)); }

/// The per-unit scalar LSTM: one row, one step and one unit at a time, each
/// gate pre-activation a double accumulator over the bias, then w_ih in
/// channel order, then w_hh in unit order. Lstm::step interleaves blocks of
/// rows; it must reproduce this bit for bit.
Tensor lstm_reference(nn::Lstm& lstm, const Tensor& x) {
  const std::vector<nn::Parameter*> params = lstm.parameters();
  const float* pwi = params[0]->value.data();
  const float* pwh = params[1]->value.data();
  const float* pb = params[2]->value.data();
  const Index n = x.dim(0);
  const Index input = x.dim(1);
  const Index l = x.dim(2);
  const Index hidden = lstm.hidden_size();
  Tensor out({n, hidden, l});
  for (Index b = 0; b < n; ++b) {
    std::vector<float> h(hidden, 0.0F), c(hidden, 0.0F), h_next(hidden), c_next(hidden);
    for (Index t = 0; t < l; ++t) {
      for (Index u = 0; u < hidden; ++u) {
        float act[4];
        for (Index g = 0; g < 4; ++g) {
          const Index row = g * hidden + u;
          double acc = pb[row];
          for (Index ch = 0; ch < input; ++ch)
            acc += static_cast<double>(pwi[row * input + ch]) * x[(b * input + ch) * l + t];
          for (Index k = 0; k < hidden; ++k)
            acc += static_cast<double>(pwh[row * hidden + k]) * h[k];
          act[g] = g == 2 ? std::tanh(static_cast<float>(acc))
                          : sigmoid_reference(static_cast<float>(acc));
        }
        c_next[u] = act[1] * c[u] + act[0] * act[2];
        h_next[u] = act[3] * std::tanh(c_next[u]);
        out[(b * hidden + u) * l + t] = h_next[u];
      }
      std::swap(h, h_next);
      std::swap(c, c_next);
    }
  }
  return out;
}

// forward() and forward_inference() run one step kernel over blocks of 8
// rows, then 4, 2 and 1 for the rest; both must match the per-unit reference
// bit for bit. n = 1 is the 1-row OnlineMonitor call; 7, 9 and 17 leave
// ragged blocks (4 + 2 + 1, 8 + 1, 8 + 8 + 1).
TEST(Lstm, BothForwardsMatchPerUnitReferenceBitForBit) {
  std::uint64_t seed = 41;
  for (const Index n : {1, 7, 8, 9, 17}) {
    Rng rng(seed++);
    nn::Lstm lstm(3, 5, rng);
    lstm.parameters()[2]->value = Tensor::randn({4 * 5}, rng);
    const Tensor x = Tensor::randn({n, 3, 6}, rng, 2.0F);
    const Tensor ref = lstm_reference(lstm, x);
    for (const Tensor& y : {lstm.forward(x), lstm.forward_inference(x)}) {
      ASSERT_EQ(ref.shape(), y.shape());
      ASSERT_EQ(std::memcmp(ref.data(), y.data(), sizeof(float) * ref.numel()), 0)
          << "n=" << n;
    }
  }
  // Cancellation row. Step 0 saturates every gate (input 1, w_ih = +-100,
  // zero biases), so h_0 = (tanh 1, -tanh 1, tanh 1). At step 1 (input 0) the
  // cell-gate pre-activation of unit 0 sums w_hh * h_0 over units 0-2 with
  // w_hh = (2^60, 2^60, 1): the products 2^60 tanh 1, -2^60 tanh 1, tanh 1,
  // which only the ascending unit order sums to tanh 1 rather than 0.
  Rng rng(seed);
  const Index hidden = 3;
  nn::Lstm lstm(1, hidden, rng);
  const std::vector<nn::Parameter*> params = lstm.parameters();
  for (Index r = 0; r < 4 * hidden; ++r)  // cell gate of unit 1 saturates at -1
    params[0]->value[r] = r == 2 * hidden + 1 ? -100.0F : 100.0F;
  params[1]->value.zero();
  params[2]->value.zero();
  const float big = 1152921504606846976.0F;  // 2^60
  float* cell_row = params[1]->value.data() + 2 * hidden * hidden;  // cell gate, unit 0
  cell_row[0] = big;
  cell_row[1] = big;
  cell_row[2] = 1.0F;
  const Tensor x({1, 1, 2}, std::vector<float>{1.0F, 0.0F});
  const Tensor ref = lstm_reference(lstm, x);
  for (const Tensor& y : {lstm.forward(x), lstm.forward_inference(x)})
    EXPECT_EQ(std::memcmp(ref.data(), y.data(), sizeof(float) * ref.numel()), 0)
        << "cancellation row";
}

TEST(Lstm, OutputShape) {
  Rng rng(1);
  nn::Lstm lstm(3, 5, rng);
  const Tensor x = Tensor::randn({2, 3, 7}, rng);
  const Tensor y = lstm.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 7}));
  EXPECT_EQ(lstm.output_shape({3, 7}), (Shape{5, 7}));
}

TEST(Lstm, RejectsWrongChannelCount) {
  Rng rng(1);
  nn::Lstm lstm(3, 5, rng);
  EXPECT_THROW(lstm.forward(Tensor({2, 4, 7})), Error);
  EXPECT_THROW(lstm.forward(Tensor({2, 3})), Error);
}

TEST(Lstm, HiddenStateIsBounded) {
  // h = o * tanh(c) with o in (0,1) and tanh in (-1,1).
  Rng rng(2);
  nn::Lstm lstm(2, 4, rng);
  const Tensor x = Tensor::randn({1, 2, 20}, rng, 3.0F);
  const Tensor y = lstm.forward(x);
  EXPECT_LE(y.max(), 1.0F);
  EXPECT_GE(y.min(), -1.0F);
}

TEST(Lstm, ZeroWeightsGiveConstantOutput) {
  Rng rng(3);
  nn::Lstm lstm(2, 3, rng);
  for (nn::Parameter* p : lstm.parameters()) p->value.zero();
  const Tensor x = Tensor::randn({1, 2, 5}, rng);
  const Tensor y = lstm.forward(x);
  // With all weights and biases zero: i=f=o=0.5, g=0, c stays 0, h stays 0.
  EXPECT_NEAR(y.max(), 0.0F, 1e-6);
  EXPECT_NEAR(y.min(), 0.0F, 1e-6);
}

TEST(Lstm, StatePropagatesAcrossTime) {
  // The same input at every step must produce evolving hidden states while
  // the cell saturates (outputs differ between early and late steps).
  Rng rng(4);
  nn::Lstm lstm(1, 4, rng);
  Tensor x({1, 1, 10}, std::vector<float>(10, 1.0F));
  const Tensor y = lstm.forward(x);
  float first = 0.0F;
  float last = 0.0F;
  for (Index h = 0; h < 4; ++h) {
    first += std::fabs(y[h * 10 + 0]);
    last += std::fabs(y[h * 10 + 9]);
  }
  EXPECT_GT(std::fabs(first - last), 1e-4F);
}

TEST(Lstm, ForgetGateBiasInitialisedToOne) {
  Rng rng(5);
  nn::Lstm lstm(2, 3, rng);
  const Tensor& bias = lstm.parameters()[2]->value;
  for (Index h = 0; h < 3; ++h) EXPECT_FLOAT_EQ(bias[3 + h], 1.0F);  // forget block
  for (Index h = 0; h < 3; ++h) EXPECT_FLOAT_EQ(bias[h], 0.0F);      // input block
}

struct LstmCase {
  Index input;
  Index hidden;
  Index length;
  Index batch;
};

class LstmGradCheck : public ::testing::TestWithParam<LstmCase> {};

TEST_P(LstmGradCheck, MatchesFiniteDifferences) {
  const LstmCase c = GetParam();
  Rng rng(31);
  nn::Lstm lstm(c.input, c.hidden, rng);
  const Tensor x = Tensor::randn({c.batch, c.input, c.length}, rng);
  const Tensor projection = Tensor::randn({c.batch, c.hidden, c.length}, rng);
  testing::check_input_gradient(lstm, x, projection, 1e-2F, 3e-2F);
  testing::check_parameter_gradients(lstm, x, projection, 1e-2F, 3e-2F);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LstmGradCheck,
                         ::testing::Values(LstmCase{1, 2, 3, 1}, LstmCase{2, 3, 5, 2},
                                           LstmCase{3, 4, 4, 1}));

TEST(LstmStack, GradCheckThroughTwoLayersAndHead) {
  Rng rng(37);
  nn::Sequential net;
  net.emplace<nn::Lstm>(2, 3, rng);
  net.emplace<nn::Lstm>(3, 3, rng);
  net.emplace<nn::LastTimeStep>();
  net.emplace<nn::Linear>(3, 2, rng);
  const Tensor x = Tensor::randn({2, 2, 4}, rng);
  const Tensor projection = Tensor::randn({2, 2}, rng);
  testing::check_input_gradient(net, x, projection, 1e-2F, 3e-2F);
  testing::check_parameter_gradients(net, x, projection, 1e-2F, 3e-2F);
}

// backward() before any forward() names the missing forward rather than
// failing on the empty cache's shape.
TEST(Lstm, BackwardWithoutForwardThrowsNamedError) {
  Rng rng(1);
  nn::Lstm lstm(2, 3, rng);
  std::string message;
  try {
    lstm.backward(Tensor({1, 3, 4}));
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("backward called without matching forward"), std::string::npos)
      << message;
}

TEST(Lstm, FlopsScaleWithLength) {
  Rng rng(6);
  nn::Lstm lstm(3, 8, rng);
  EXPECT_EQ(lstm.flops({3, 10}), 2 * lstm.flops({3, 5}));
  EXPECT_GT(lstm.flops({3, 1}), 0);
}

}  // namespace
}  // namespace varade
