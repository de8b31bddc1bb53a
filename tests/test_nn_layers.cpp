// Layer tests: exact forward semantics plus finite-difference gradient checks
// over parameterised shape sweeps.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "varade/nn/layers.hpp"

namespace varade {
namespace {

using nn::Conv1d;
using nn::ConvTranspose1d;
using nn::Flatten;
using nn::LastTimeStep;
using nn::Linear;
using nn::ReLU;
using nn::ResidualBlock1d;

// ReLU-style input: the negative half of a normal sample replaced by zeros of
// both signs, so the kernels see +0.0f and -0.0f as a trunk layer does.
Tensor relu_style(const Shape& shape, Rng& rng) {
  Tensor x = Tensor::randn(shape, rng);
  for (Index i = 0; i < x.numel(); ++i)
    if (x[i] <= 0.0F) x[i] = rng.bernoulli(0.5) ? 0.0F : -0.0F;
  return x;
}

/// Index of the first element whose bit pattern differs, or -1. Bitwise, so
/// +0.0f vs -0.0f counts as a mismatch.
Index first_bit_mismatch(const Tensor& a, const Tensor& b) {
  for (Index i = 0; i < a.numel(); ++i)
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) return i;
  return -1;
}

// --- scalar references --------------------------------------------------------
// Linear, Conv1d and ConvTranspose1d run one vectorised kernel for both
// forward() and forward_inference(). These plain loops are what that kernel
// must reproduce bit for bit: the same per-element accumulation order, the
// same skipped taps and the same skipped zero inputs.

/// y[i][o] = float(double(b[o]) + sum_j double(w[o][j]) * x[i][j]), j ascending.
Tensor linear_reference(Linear& layer, const Tensor& x) {
  const Index n = x.dim(0);
  const Index in = layer.in_features();
  const Index out = layer.out_features();
  const float* pw = layer.weight().value.data();
  const float* pb = layer.bias().value.data();
  Tensor y({n, out});
  for (Index i = 0; i < n; ++i)
    for (Index o = 0; o < out; ++o) {
      double acc = pb[o];
      for (Index j = 0; j < in; ++j) acc += static_cast<double>(pw[o * in + j]) * x[i * in + j];
      y[i * out + o] = static_cast<float>(acc);
    }
  return y;
}

/// Each output starts at the bias; then, for ascending ci, one float addition
/// of a double dot product over the in-bounds taps in ascending k (taps in the
/// padding are skipped; the addition happens even when every tap was).
Tensor conv1d_reference(Conv1d& conv, const Tensor& x) {
  const Index n = x.dim(0);
  const Index in_ch = conv.in_channels();
  const Index out_ch = conv.out_channels();
  const Index kernel = conv.kernel_size();
  const Index l_in = x.dim(2);
  const Index l_out = conv.out_length(l_in);
  const float* pw = conv.parameters()[0]->value.data();
  const float* pb = conv.parameters()[1]->value.data();
  Tensor y({n, out_ch, l_out});
  for (Index b = 0; b < n; ++b)
    for (Index co = 0; co < out_ch; ++co) {
      float* yc = y.data() + (b * out_ch + co) * l_out;
      for (Index t = 0; t < l_out; ++t) yc[t] = pb[co];
      for (Index ci = 0; ci < in_ch; ++ci) {
        const float* xc = x.data() + (b * in_ch + ci) * l_in;
        const float* wk = pw + (co * in_ch + ci) * kernel;
        for (Index t = 0; t < l_out; ++t) {
          const Index start = t * conv.stride() - conv.padding();
          double acc = 0.0;
          for (Index k = 0; k < kernel; ++k) {
            const Index pos = start + k;
            if (pos >= 0 && pos < l_in) acc += static_cast<double>(wk[k]) * xc[pos];
          }
          yc[t] += static_cast<float>(acc);
        }
      }
    }
  return y;
}

/// Bias-filled outputs, then a float scatter: ci, co, input step t ascending
/// (exact zeros skipped), tap k ascending.
Tensor convt1d_reference(ConvTranspose1d& conv, const Tensor& x, Index kernel, Index stride) {
  const Index n = x.dim(0);
  const Index in_ch = x.dim(1);
  const Index l_in = x.dim(2);
  const Index l_out = (l_in - 1) * stride + kernel;
  const float* pw = conv.parameters()[0]->value.data();
  const Tensor& bias = conv.parameters()[1]->value;
  const Index out_ch = bias.numel();
  Tensor y({n, out_ch, l_out});
  for (Index b = 0; b < n; ++b) {
    for (Index co = 0; co < out_ch; ++co)
      for (Index t = 0; t < l_out; ++t) y[(b * out_ch + co) * l_out + t] = bias[co];
    for (Index ci = 0; ci < in_ch; ++ci)
      for (Index co = 0; co < out_ch; ++co) {
        const float* wk = pw + (ci * out_ch + co) * kernel;
        float* yc = y.data() + (b * out_ch + co) * l_out;
        for (Index t = 0; t < l_in; ++t) {
          const float xv = x[(b * in_ch + ci) * l_in + t];
          if (xv == 0.0F) continue;
          for (Index k = 0; k < kernel; ++k) yc[t * stride + k] += xv * wk[k];
        }
      }
  }
  return y;
}

// Conv1d and Linear run one vectorised backward kernel for backward() and
// backward_params(). These are the scalar loops it replaced: per element the
// same float products and float additions in the same order, with exact-zero
// gradients skipped. Each accumulates into dw and db, which may hold earlier
// gradients, and returns dX.

/// dW[o][j] += g[i][o] * x[i][j] over i ascending, db[o] += g[i][o],
/// dX[i][j] += g[i][o] * w[o][j] over o ascending; g == 0 skipped.
Tensor linear_backward_reference(Linear& layer, const Tensor& x, const Tensor& grad_out,
                                 Tensor& dw, Tensor& db) {
  const Index n = x.dim(0);
  const Index in = layer.in_features();
  const Index out = layer.out_features();
  const float* pw = layer.weight().value.data();
  Tensor dx({n, in});
  for (Index i = 0; i < n; ++i)
    for (Index o = 0; o < out; ++o) {
      const float g = grad_out[i * out + o];
      if (g == 0.0F) continue;
      db[o] += g;
      for (Index j = 0; j < in; ++j) {
        dw[o * in + j] += g * x[i * in + j];
        dx[i * in + j] += g * pw[o * in + j];
      }
    }
  return dx;
}

/// Loops b, co, ci, t, k: db[co] sums grad_out over (b, t); dW[co][ci][k]
/// over (b, t); dX[b][ci][pos] over (co, t, k); in-bounds taps only, g == 0
/// skipped.
Tensor conv1d_backward_reference(Conv1d& conv, const Tensor& x, const Tensor& grad_out,
                                 Tensor& dw, Tensor& db) {
  const Index n = x.dim(0);
  const Index in_ch = conv.in_channels();
  const Index out_ch = conv.out_channels();
  const Index kernel = conv.kernel_size();
  const Index l_in = x.dim(2);
  const Index l_out = conv.out_length(l_in);
  const float* pw = conv.parameters()[0]->value.data();
  Tensor dx(x.shape());
  for (Index b = 0; b < n; ++b)
    for (Index co = 0; co < out_ch; ++co) {
      const float* gc = grad_out.data() + (b * out_ch + co) * l_out;
      for (Index t = 0; t < l_out; ++t) db[co] += gc[t];
      for (Index ci = 0; ci < in_ch; ++ci) {
        const float* xc = x.data() + (b * in_ch + ci) * l_in;
        float* dxc = dx.data() + (b * in_ch + ci) * l_in;
        const float* wk = pw + (co * in_ch + ci) * kernel;
        float* dwk = dw.data() + (co * in_ch + ci) * kernel;
        for (Index t = 0; t < l_out; ++t) {
          const float g = gc[t];
          if (g == 0.0F) continue;
          const Index start = t * conv.stride() - conv.padding();
          for (Index k = 0; k < kernel; ++k) {
            const Index pos = start + k;
            if (pos >= 0 && pos < l_in) {
              dwk[k] += g * xc[pos];
              dxc[pos] += g * wk[k];
            }
          }
        }
      }
    }
  return dx;
}

// Crafted cancellation: float values whose products, summed in the intended
// order, come to 1, and summed in reverse order come to 0. 2^60 swallows the
// 1 in float and in double alike, so a row that holds these three in
// ascending order catches a reordering inside one accumulator, which random
// data almost never does (float x float products are exact in double).
constexpr float kBig = 1152921504606846976.0F;  // 2^60
constexpr float kCancel[3] = {kBig, -kBig, 1.0F};

/// The message of the varade::Error `f` throws, or "" if it throws none.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// A forward output labelled with the path that produced it.
struct Forward {
  std::string path;
  Tensor y;
};

/// Every way a Linear's forward runs: forward(), forward_inference(), and
/// forward_packed() through each kernel table this host can run — the
/// portable one included, which the dispatch never selects on an AVX2 host.
std::vector<Forward> linear_forwards(Linear& layer, const Tensor& x) {
  std::vector<Forward> ys = {{"forward", layer.forward(x)},
                             {"forward_inference", layer.forward_inference(x)}};
  const nn::PackedWeights packed = layer.pack();
  const std::vector<std::string> tables = nn::detail::kernel_tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    Tensor y({x.dim(0), layer.out_features()});
    nn::detail::linear_forward_packed(static_cast<Index>(t), layer, packed, x.data(), x.dim(0),
                                      y.data());
    ys.push_back({tables[t], y});
  }
  return ys;
}

/// linear_forwards() for a Conv1d.
std::vector<Forward> conv1d_forwards(Conv1d& conv, const Tensor& x) {
  std::vector<Forward> ys = {{"forward", conv.forward(x)},
                             {"forward_inference", conv.forward_inference(x)}};
  const nn::PackedWeights packed = conv.pack();
  const std::vector<std::string> tables = nn::detail::kernel_tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    Tensor y({x.dim(0), conv.out_channels(), conv.out_length(x.dim(2))});
    nn::detail::conv1d_forward_packed(static_cast<Index>(t), conv, packed, x.data(), x.dim(0),
                                      x.dim(2), y.data());
    ys.push_back({tables[t], y});
  }
  return ys;
}

/// Batch sizes that reach every row block of the packed forward kernels
/// (Linear 3, 2, 1; Conv1d 2, 1) and both tails.
const std::vector<Index> kBatchSizes = {1, 2, 3, 4, 5, 7, 16, 17};

/// grad_out for a backward parity test: normal values with about a third
/// replaced by exact zeros of both signs, which the kernels skip.
Tensor sparse_grad(const Shape& shape, Rng& rng) {
  Tensor g = Tensor::randn(shape, rng);
  for (Index i = 0; i < g.numel(); ++i)
    if (rng.bernoulli(0.3)) g[i] = rng.bernoulli(0.5) ? 0.0F : -0.0F;
  return g;
}

/// Runs `layer`'s backward() and then its backward_params(), each from the
/// same non-zero parameter gradients, and checks dW, db and dX against the
/// scalar `reference` bit for bit. backward_params() must leave the same
/// parameter gradients as backward().
template <typename Layer, typename Reference>
void expect_backward_matches_reference(Layer& layer, const Tensor& x, const Tensor& grad_out,
                                       Rng& rng, Reference reference, const std::string& what) {
  Tensor& dw = layer.parameters()[0]->grad;
  Tensor& db = layer.parameters()[1]->grad;
  const Tensor dw0 = Tensor::randn(dw.shape(), rng);
  const Tensor db0 = Tensor::randn(db.shape(), rng);
  Tensor dw_ref = dw0;
  Tensor db_ref = db0;
  const Tensor dx_ref = reference(layer, x, grad_out, dw_ref, db_ref);

  layer.forward(x);
  dw = dw0;
  db = db0;
  const Tensor dx = layer.backward(grad_out);
  ASSERT_EQ(dx_ref.shape(), dx.shape()) << what;
  EXPECT_EQ(first_bit_mismatch(dx_ref, dx), -1) << what << ": dX";
  EXPECT_EQ(first_bit_mismatch(dw_ref, dw), -1) << what << ": dW";
  EXPECT_EQ(first_bit_mismatch(db_ref, db), -1) << what << ": db";

  dw = dw0;
  db = db0;
  layer.backward_params(grad_out);
  EXPECT_EQ(first_bit_mismatch(dw_ref, dw), -1) << what << ": backward_params dW";
  EXPECT_EQ(first_bit_mismatch(db_ref, db), -1) << what << ": backward_params db";
}

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 3, rng);
  layer.weight().value = Tensor::matrix({{1, 0}, {0, 1}, {1, 1}});
  layer.bias().value = Tensor::vector({0.5F, -0.5F, 0});
  const Tensor x = Tensor::matrix({{2, 3}});
  const Tensor y = layer.forward(x);
  EXPECT_TRUE(allclose(y, Tensor::matrix({{2.5F, 2.5F, 5}})));
}

TEST(Linear, RejectsWrongInputShape) {
  Rng rng(1);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({1, 3})), Error);
  EXPECT_THROW(layer.forward(Tensor({4})), Error);
}

TEST(Linear, OutputShapeAndFlops) {
  Rng rng(1);
  Linear layer(8, 5, rng);
  EXPECT_EQ(layer.output_shape({8}), (Shape{5}));
  EXPECT_EQ(layer.flops({8}), 2 * 8 * 5);
  EXPECT_EQ(layer.num_params(), 8 * 5 + 5);
}

// forward() and forward_inference() both run the packed [in][out] kernel,
// vectorised across outputs and blocked over rows; each output keeps the
// scalar reference's accumulation order, so every path — and each kernel
// table, fused multiply-add or not — must match it bit for bit at every
// block width. out = 86 is the VARADE repro head (not a multiple of the
// vector width), in = 64 its feature width; in = 7 is ragged.
TEST(Linear, BothForwardsMatchScalarReferenceBitForBit) {
  struct Geometry {
    Index in, out;
  };
  const std::vector<Geometry> cases = {{64, 86}, {7, 86}, {64, 1}, {3, 16}};
  std::uint64_t seed = 5;
  for (const Geometry& g : cases) {
    for (const Index n : kBatchSizes) {
      Rng rng(seed++);
      Linear layer(g.in, g.out, rng);
      layer.bias().value = Tensor::randn({g.out}, rng);
      const Tensor x = relu_style({n, g.in}, rng);
      const Tensor ref = linear_reference(layer, x);
      for (const Forward& f : linear_forwards(layer, x)) {
        ASSERT_EQ(ref.shape(), f.y.shape());
        ASSERT_EQ(first_bit_mismatch(ref, f.y), -1)
            << f.path << " in=" << g.in << " out=" << g.out << " n=" << n;
      }
    }
  }
  // Cancellation rows: output 0 of every row sums the products 2^60, -2^60, 1
  // over inputs 0-2 (then zeros), which only the ascending input order makes
  // 1. Four rows run a block of 3 and a single row; five, 3 and 2.
  std::uint64_t cancel_seed = seed;
  for (const Index n : {4, 5}) {
    Rng rng(cancel_seed++);
    Linear layer(8, 3, rng);
    Tensor x({n, 8});
    for (Index i = 0; i < n; ++i)
      for (Index j = 0; j < 3; ++j) x[i * 8 + j] = kCancel[j];
    for (Index j = 0; j < 3; ++j) layer.weight().value[j] = 1.0F;
    const Tensor ref = linear_reference(layer, x);
    for (Index i = 0; i < n; ++i) ASSERT_EQ(ref[i * 3], 1.0F);
    for (const Forward& f : linear_forwards(layer, x))
      EXPECT_EQ(first_bit_mismatch(ref, f.y), -1) << f.path << ": cancellation rows, n=" << n;
  }
}

// backward() and backward_params() run one kernel vectorised across inputs;
// it keeps the scalar loop's order for every element, so dW, db and dX must
// match it bit for bit, from weight gradients that are already non-zero and
// with exact zeros of both signs in grad_out and the input. The last case is
// a cancellation row: dW[0][0] sums 2^60, -2^60, 1 over rows and dX[0][0]
// over outputs, which only the ascending orders make 1.
TEST(Linear, BackwardMatchesScalarReferenceBitForBit) {
  struct Geometry {
    Index in, out, n;
  };
  const std::vector<Geometry> cases = {{64, 86, 32}, {7, 86, 5}, {3, 16, 4}, {86, 1, 3}};
  std::uint64_t seed = 31;
  for (const Geometry& c : cases) {
    Rng rng(seed++);
    Linear layer(c.in, c.out, rng);
    const Tensor x = relu_style({c.n, c.in}, rng);
    const Tensor g = sparse_grad({c.n, c.out}, rng);
    expect_backward_matches_reference(
        layer, x, g, rng, linear_backward_reference,
        "in=" + std::to_string(c.in) + " out=" + std::to_string(c.out));
  }
  Rng rng(seed);
  Linear layer(2, 3, rng);
  for (Index o = 0; o < 3; ++o) layer.weight().value[o * 2] = kCancel[o];
  Tensor x = Tensor::randn({3, 2}, rng);
  Tensor g({3, 3});
  for (Index i = 0; i < 3; ++i) {
    x[i * 2] = kCancel[i];
    g[i * 3] = 1.0F;  // dW[0][0] sums g[i][0] * x[i][0] over rows i
    g[i] = 1.0F;      // dX[0][0] sums g[0][o] * w[o][0] over outputs o
  }
  Tensor dw({3, 2});
  Tensor db({3});
  ASSERT_EQ(linear_backward_reference(layer, x, g, dw, db)[0], 1.0F);
  ASSERT_EQ(dw[0], 1.0F);
  expect_backward_matches_reference(layer, x, g, rng, linear_backward_reference,
                                    "cancellation rows");
}

TEST(ReLU, ForwardAndBackward) {
  ReLU relu;
  const Tensor x = Tensor::vector({-1, 0, 2});
  EXPECT_EQ(relu.forward(x), Tensor::vector({0, 0, 2}));
  const Tensor g = relu.backward(Tensor::vector({1, 1, 1}));
  EXPECT_EQ(g, Tensor::vector({0, 0, 1}));
}

TEST(Conv1d, OutLengthGeometry) {
  Rng rng(1);
  Conv1d c(1, 1, 2, 2, 0, rng);
  EXPECT_EQ(c.out_length(8), 4);
  EXPECT_EQ(c.out_length(9), 4);
  Conv1d same(1, 1, 3, 1, 1, rng);
  EXPECT_EQ(same.out_length(8), 8);
  EXPECT_THROW(Conv1d(1, 1, 4, 1, 0, rng).out_length(2), Error);
}

TEST(Conv1d, ForwardMatchesManualComputation) {
  Rng rng(1);
  Conv1d c(1, 1, 2, 2, 0, rng);
  c.parameters()[0]->value = Tensor({1, 1, 2}, std::vector<float>{1.0F, -1.0F});
  c.parameters()[1]->value = Tensor::vector({0.5F});
  const Tensor x({1, 1, 4}, std::vector<float>{1, 2, 3, 5});
  const Tensor y = c.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 1.0F - 2.0F + 0.5F);
  EXPECT_FLOAT_EQ(y[1], 3.0F - 5.0F + 0.5F);
}

TEST(Conv1d, PaddingPreservesLength) {
  Rng rng(2);
  Conv1d c(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({2, 2, 6}, rng);
  EXPECT_EQ(c.forward(x).shape(), (Shape{2, 3, 6}));
}

// forward() and forward_inference() both run the packed [ci][k][co] kernel,
// vectorised across output channels and blocked over pairs of rows; it keeps
// the scalar reference's per-element accumulation order, so every path — and
// each kernel table, fused multiply-add or not — must match it bit for bit
// across every geometry the models use and every block width: windows
// entirely inside the padding, channel counts that are not multiples of the
// vector width. The VARADE repro trunk (86 channels, window 32, base 16) and
// its streamed [n, C, 2] tap pairs run on ReLU-style inputs holding zeros of
// both signs.
TEST(Conv1d, BothForwardsMatchScalarReferenceBitForBit) {
  struct Geometry {
    Index in_ch, out_ch, kernel, stride, padding, length;
    bool relu_input;
  };
  const std::vector<Geometry> cases = {
      {1, 1, 2, 2, 0, 8, false},     // VARADE trunk: halving conv, no padding
      {3, 8, 2, 2, 0, 32, false},    //  - wider
      {86, 16, 2, 2, 0, 32, true},   // VARADE repro trunk layer 0
      {16, 16, 2, 2, 0, 16, true},   //  - layer 1
      {16, 32, 2, 2, 0, 8, true},    //  - layer 2 (channel doubling)
      {32, 32, 2, 2, 0, 4, true},    //  - layer 3 (l_out = 2)
      {86, 16, 2, 2, 0, 2, true},    // streamed layer 0: one tap pair per row
      {32, 32, 2, 2, 0, 2, true},    //  - streamed layer 3
      {3, 4, 2, 1, 0, 24, false},    // k2/s1
      {2, 3, 3, 1, 1, 6, false},     // AE residual block: same-length conv
      {4, 4, 3, 1, 1, 37, true},     //  - ragged length, ReLU zeros
      {2, 2, 5, 1, 2, 4, false},     // kernel wider than half the input
      {1, 2, 3, 2, 3, 3, false},     // padding > kernel: boundary-only outputs
      {2, 4, 4, 3, 2, 19, false},    // stride > 1 with padding (strided interior)
      {5, 19, 3, 1, 1, 9, true},     // out_ch past one vector block, ragged
  };
  std::uint64_t seed = 7;
  for (const Geometry& g : cases) {
    for (const Index n : kBatchSizes) {
      Rng rng(seed++);
      Conv1d conv(g.in_ch, g.out_ch, g.kernel, g.stride, g.padding, rng);
      conv.parameters()[1]->value = Tensor::randn({g.out_ch}, rng);
      const Shape shape{n, g.in_ch, g.length};
      const Tensor x = g.relu_input ? relu_style(shape, rng) : Tensor::randn(shape, rng);
      const Tensor ref = conv1d_reference(conv, x);
      for (const Forward& f : conv1d_forwards(conv, x)) {
        ASSERT_EQ(ref.shape(), f.y.shape());
        ASSERT_EQ(first_bit_mismatch(ref, f.y), -1)
            << f.path << " " << g.in_ch << "->" << g.out_ch << " kernel=" << g.kernel
            << " stride=" << g.stride << " padding=" << g.padding << " length=" << g.length
            << " n=" << n;
      }
    }
  }
  // Cancellation rows: output step 1 of a k3/s1/p1 conv sums the taps
  // 2^60, -2^60, 1 at input steps 0-2, which only the ascending tap order
  // makes 1 (with kernel 2 a tap order cannot show: a + b == b + a). Each of
  // three rows holds it: a block of 2, then a single row.
  Rng rng(seed);
  Conv1d conv(1, 2, 3, 1, 1, rng);
  const float cancel_row[5] = {kCancel[0], kCancel[1], kCancel[2], 0.5F, 0.25F};
  Tensor x({3, 1, 5});
  for (Index i = 0; i < 3; ++i)
    for (Index t = 0; t < 5; ++t) x[i * 5 + t] = cancel_row[t];
  for (Index k = 0; k < 3; ++k) conv.parameters()[0]->value[k] = 1.0F;
  const Tensor ref = conv1d_reference(conv, x);
  for (Index i = 0; i < 3; ++i) ASSERT_EQ(ref[i * 2 * 5 + 1], 1.0F);
  for (const Forward& f : conv1d_forwards(conv, x))
    EXPECT_EQ(first_bit_mismatch(ref, f.y), -1) << f.path << ": cancellation rows";
}

// backward() and backward_params() run one kernel vectorised across input
// channels over transposed copies of the weights, their gradient and the
// input. It keeps the scalar loop's order for every element, so dW, db and
// dX must match it bit for bit, from weight gradients that are already
// non-zero and with exact zeros of both signs in grad_out and the input.
TEST(Conv1d, BackwardMatchesScalarReferenceBitForBit) {
  struct Geometry {
    Index in_ch, out_ch, kernel, stride, padding, batch, length;
  };
  const std::vector<Geometry> cases = {
      {86, 16, 2, 2, 0, 4, 32},  // VARADE repro trunk layer 0: k2/s2
      {16, 32, 2, 2, 0, 3, 8},   //  - layer 2 (channel doubling)
      {3, 5, 2, 2, 0, 3, 9},     // k2/s2, odd length: the last input step unread
      {4, 4, 3, 1, 1, 3, 37},    // AE residual block: padded k3/s1/p1, ragged
      {9, 3, 3, 1, 1, 2, 8},     //  - input channels past one vector
      {3, 4, 3, 2, 0, 2, 11},    // overlapping k3/s2
      {2, 2, 5, 1, 2, 2, 4},     // edge taps: kernel wider than half the input
      {1, 2, 3, 2, 3, 2, 3},     // padding > kernel: windows inside the padding
      {2, 4, 4, 3, 2, 1, 19},    // stride > 1 with padding
  };
  std::uint64_t seed = 37;
  for (const Geometry& c : cases) {
    Rng rng(seed++);
    Conv1d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
    const Tensor x = relu_style({c.batch, c.in_ch, c.length}, rng);
    const Tensor g = sparse_grad({c.batch, c.out_ch, conv.out_length(c.length)}, rng);
    expect_backward_matches_reference(
        conv, x, g, rng, conv1d_backward_reference,
        std::to_string(c.in_ch) + "->" + std::to_string(c.out_ch) + " kernel=" +
            std::to_string(c.kernel) + " stride=" + std::to_string(c.stride) +
            " padding=" + std::to_string(c.padding) + " length=" + std::to_string(c.length));
  }
}

// Cancellation rows for the Conv1d backward (k2/s2, 3 rows, 3 output
// channels, length 6): dW[0][0][0] sums 2^60, -2^60, 1 over batch rows,
// dW[0][0][1] over output steps of row 0, and dX[0][0][0] over output
// channels. Only the scalar loop's (b, t) and co orders make each 1.
TEST(Conv1d, BackwardKeepsEachSumsOrder) {
  Rng rng(47);
  Conv1d conv(1, 3, 2, 2, 0, rng);
  Tensor x({3, 1, 6});
  Tensor g({3, 3, 3});
  for (Index i = 0; i < 3; ++i) {
    x[i * 6] = kCancel[i];        // tap 0 of step 0 in row i
    x[2 * i + 1] = kCancel[i];    // tap 1 of step i in row 0
    conv.parameters()[0]->value[i * 2] = kCancel[i];  // w[co = i][0][0]
    g[i * 9] = 1.0F;              // g[b = i][0][0]
    g[i] = 1.0F;                  // g[0][0][t = i]
    g[i * 3] = 1.0F;              // g[0][co = i][0]
  }
  Tensor dw({3, 1, 2});
  Tensor db({3});
  const Tensor dx = conv1d_backward_reference(conv, x, g, dw, db);
  ASSERT_EQ(dw[0], 1.0F);
  ASSERT_EQ(dw[1], 1.0F);
  ASSERT_EQ(dx[0], 1.0F);
  expect_backward_matches_reference(conv, x, g, rng, conv1d_backward_reference,
                                    "cancellation rows");
}

// backward() before any forward() names the missing forward rather than
// failing on the empty cache's shape.
TEST(Conv1d, BackwardWithoutForwardThrowsNamedError) {
  Rng rng(1);
  Conv1d conv(2, 3, 2, 2, 0, rng);
  const Tensor g({1, 3, 2});
  EXPECT_NE(error_of([&] { conv.backward(g); }).find("backward called without matching forward"),
            std::string::npos);
  EXPECT_NE(error_of([&] { conv.backward_params(g); })
                .find("backward called without matching forward"),
            std::string::npos);
}

// pack() + forward_packed() is forward_inference() with the packing done
// once: bit-identical output, and a snapshot that later weight writes do not
// reach.
TEST(PackedWeights, ForwardPackedMatchesForwardInferenceAndIsASnapshot) {
  Rng rng(21);
  Conv1d conv(86, 16, 2, 2, 0, rng);
  conv.parameters()[1]->value = Tensor::randn({16}, rng);
  const Tensor x = relu_style({5, 86, 2}, rng);
  const nn::PackedWeights conv_packed = conv.pack();
  const Tensor conv_ref = conv.forward_inference(x);
  Tensor conv_out({5, 16, 1});
  conv.forward_packed(conv_packed, x.data(), 5, 2, conv_out.data());
  EXPECT_EQ(first_bit_mismatch(conv_ref, conv_out), -1);

  Linear head(64, 86, rng);
  head.bias().value = Tensor::randn({86}, rng);
  const Tensor h = relu_style({3, 64}, rng);
  const nn::PackedWeights head_packed = head.pack();
  const Tensor head_ref = head.forward_inference(h);
  Tensor head_out({3, 86});
  head.forward_packed(head_packed, h.data(), 3, head_out.data());
  EXPECT_EQ(first_bit_mismatch(head_ref, head_out), -1);

  conv.parameters()[0]->value *= 2.0F;
  head.weight().value *= 2.0F;
  EXPECT_NE(first_bit_mismatch(conv.forward_inference(x), conv_ref), -1);
  EXPECT_NE(first_bit_mismatch(head.forward_inference(h), head_ref), -1);
  conv.forward_packed(conv_packed, x.data(), 5, 2, conv_out.data());
  head.forward_packed(head_packed, h.data(), 3, head_out.data());
  EXPECT_EQ(first_bit_mismatch(conv_ref, conv_out), -1);
  EXPECT_EQ(first_bit_mismatch(head_ref, head_out), -1);
}

// forward_packed() refuses a block packed for another layer with a named
// error, before its kernel can read past the block's end: a block from a
// layer with more inputs or channels is too long, one from a layer with more
// outputs has a wider out_pad. Runs under ASan with the parity label.
TEST(PackedWeights, ForwardPackedRejectsABlockPackedForAnotherLayer) {
  Rng rng(23);
  const std::string named = "forward_packed: weights packed for another layer";
  Linear head(32, 16, rng);
  const Tensor h = relu_style({3, 32}, rng);
  Tensor head_out({3, 16});
  for (const nn::PackedWeights& wide : {Linear(64, 16, rng).pack(), Linear(32, 86, rng).pack(),
                                        Linear(16, 16, rng).pack(), nn::PackedWeights{}}) {
    EXPECT_NE(error_of([&] { head.forward_packed(wide, h.data(), 3, head_out.data()); })
                  .find("Linear::" + named),
              std::string::npos);
    for (Index t = 0; t < static_cast<Index>(nn::detail::kernel_tables().size()); ++t)
      EXPECT_NE(error_of([&] {
                  nn::detail::linear_forward_packed(t, head, wide, h.data(), 3, head_out.data());
                }).find("Linear::" + named),
                std::string::npos);
  }

  Conv1d conv(16, 16, 2, 2, 0, rng);
  const Tensor x = relu_style({3, 16, 2}, rng);
  Tensor conv_out({3, 16, 1});
  for (const nn::PackedWeights& wide :
       {Conv1d(86, 16, 2, 2, 0, rng).pack(), Conv1d(16, 32, 2, 2, 0, rng).pack(),
        Conv1d(16, 16, 3, 1, 1, rng).pack(), Conv1d(8, 16, 2, 2, 0, rng).pack()})
    EXPECT_NE(error_of([&] { conv.forward_packed(wide, x.data(), 3, 2, conv_out.data()); })
                  .find("Conv1d::" + named),
              std::string::npos);
  // The layer's own block still runs.
  conv.forward_packed(conv.pack(), x.data(), 3, 2, conv_out.data());
  EXPECT_EQ(first_bit_mismatch(conv.forward_inference(x), conv_out), -1);
}

TEST(ConvTranspose1d, ForwardGeometryAndValues) {
  Rng rng(1);
  ConvTranspose1d c(1, 1, 2, 2, rng);
  c.parameters()[0]->value = Tensor({1, 1, 2}, std::vector<float>{1.0F, 2.0F});
  c.parameters()[1]->value = Tensor::vector({0.0F});
  const Tensor x({1, 1, 2}, std::vector<float>{3, 4});
  const Tensor y = c.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4}));
  EXPECT_FLOAT_EQ(y[0], 3.0F);
  EXPECT_FLOAT_EQ(y[1], 6.0F);
  EXPECT_FLOAT_EQ(y[2], 4.0F);
  EXPECT_FLOAT_EQ(y[3], 8.0F);
}

// forward() and forward_inference() both run the dispatch table's scatter
// (blocked for k2/s2, the per-element row for every other geometry); every
// output element keeps the scalar reference's semantics, including the skip
// of exactly-zero inputs common behind a ReLU, so both must match it bit for
// bit. Geometries cover the AE decoder's k2/s2 layers, block-size
// raggedness, exact zeros in the input, and an overlapping stride < kernel
// case.
TEST(ConvTranspose1d, BothForwardsMatchScalarReferenceBitForBit) {
  struct Geometry {
    Index in_ch, out_ch, kernel, stride, batch, length;
    bool zero_inputs;  // sprinkle exact zeros, as a preceding ReLU would
  };
  const std::vector<Geometry> cases = {
      {8, 4, 2, 2, 1, 8, false},   // AE decoder: k2/s2 upsampling
      {4, 8, 2, 2, 3, 37, true},   //  - batched, ragged length, ReLU zeros
      {1, 1, 2, 2, 1, 4, true},    // tiny, mostly zeros
      {2, 3, 2, 3, 2, 19, true},   // stride > kernel (gaps stay at bias)
      {3, 2, 3, 2, 2, 11, false},  // stride < kernel: overlapping outputs
      {2, 2, 1, 1, 1, 8, true},    // k1/s1 degenerate
  };
  std::uint64_t seed = 11;
  for (const Geometry& g : cases) {
    Rng rng(seed++);
    ConvTranspose1d conv(g.in_ch, g.out_ch, g.kernel, g.stride, rng);
    Tensor x = Tensor::randn({g.batch, g.in_ch, g.length}, rng);
    if (g.zero_inputs)
      for (Index i = 0; i < x.numel(); ++i)
        if (rng.bernoulli(0.5)) x[i] = 0.0F;
    const Tensor ref = convt1d_reference(conv, x, g.kernel, g.stride);
    for (const Tensor& y : {conv.forward(x), conv.forward_inference(x)}) {
      ASSERT_EQ(ref.shape(), y.shape());
      ASSERT_EQ(first_bit_mismatch(ref, y), -1)
          << "kernel=" << g.kernel << " stride=" << g.stride << " length=" << g.length;
    }
  }
}

TEST(ConvTranspose1d, BackwardWithoutForwardThrowsNamedError) {
  Rng rng(1);
  ConvTranspose1d conv(2, 3, 2, 2, rng);
  EXPECT_NE(error_of([&] { conv.backward(Tensor({1, 3, 4})); })
                .find("backward called without matching forward"),
            std::string::npos);
}

// The dispatch selects the avx2+fma table wherever the CPU has both
// extensions, sanitized builds included; the tables the parity tests run are
// the portable one first and the selected one last.
TEST(KernelDispatch, ReportsSelectedKernel) {
  const std::string kernel = nn::conv1d_kernel_name();
#if defined(__x86_64__)
  const bool avx2_fma = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  EXPECT_EQ(kernel, avx2_fma ? "avx2+fma" : "portable");
#else
  EXPECT_EQ(kernel, "portable");
#endif
  const std::vector<std::string> tables = nn::detail::kernel_tables();
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables.front(), "portable");
  EXPECT_EQ(tables.back(), kernel);
}

TEST(ConvTranspose1d, InvertsConvGeometry) {
  Rng rng(3);
  Conv1d down(4, 8, 2, 2, 0, rng);
  ConvTranspose1d up(8, 4, 2, 2, rng);
  const Tensor x = Tensor::randn({1, 4, 16}, rng);
  const Tensor encoded = down.forward(x);
  EXPECT_EQ(encoded.shape(), (Shape{1, 8, 8}));
  EXPECT_EQ(up.forward(encoded).shape(), x.shape());
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Rng rng(1);
  const Tensor x = Tensor::randn({2, 3, 4}, rng);
  const Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 12}));
  const Tensor g = f.backward(y);
  EXPECT_TRUE(allclose(g, x));
}

TEST(LastTimeStep, SelectsFinalColumn) {
  LastTimeStep l;
  const Tensor x({1, 2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor y = l.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.0F);
  EXPECT_FLOAT_EQ(y[1], 6.0F);
  const Tensor g = l.backward(Tensor::matrix({{1.0F, 2.0F}}));
  EXPECT_FLOAT_EQ(g[2], 1.0F);
  EXPECT_FLOAT_EQ(g[5], 2.0F);
  EXPECT_FLOAT_EQ(g[0], 0.0F);
}

TEST(LastTimeStep, BackwardWithoutForwardThrows) {
  LastTimeStep l;
  EXPECT_THROW(l.backward(Tensor::matrix({{1.0F, 2.0F}})), Error);
}

TEST(ResidualBlock1d, PreservesShapeAndSkip) {
  Rng rng(4);
  ResidualBlock1d block(3, rng);
  const Tensor x = Tensor::randn({2, 3, 8}, rng);
  EXPECT_EQ(block.forward(x).shape(), x.shape());
  // Zeroing all conv weights must reduce the block to identity.
  for (nn::Parameter* p : block.parameters()) p->value.zero();
  EXPECT_TRUE(allclose(block.forward(x), x));
}

TEST(Sequential, ChainsShapesAndFlops) {
  Rng rng(5);
  nn::Sequential net;
  net.emplace<Conv1d>(2, 4, 2, 2, 0, rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 4, 3, rng);
  EXPECT_EQ(net.output_shape({2, 8}), (Shape{3}));
  EXPECT_GT(net.flops({2, 8}), 0);
  const Tensor x = Tensor::randn({2, 2, 8}, rng);
  EXPECT_EQ(net.forward(x).shape(), (Shape{2, 3}));
  EXPECT_EQ(net.size(), 4U);
}

// backward_params() runs backward() on every layer but the first and skips
// only the chain's input gradient, so every parameter gradient is the same
// bits backward() leaves.
TEST(Sequential, BackwardParamsLeavesTheSameParameterGradients) {
  Rng rng(29);
  nn::Sequential net;
  net.emplace<Conv1d>(5, 4, 2, 2, 0, rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 4, 3, rng);
  const Tensor x = relu_style({3, 5, 8}, rng);
  const Tensor g = sparse_grad({3, 3}, rng);
  net.zero_grad();
  net.forward(x);
  net.backward(g);
  std::vector<Tensor> full;
  for (nn::Parameter* p : net.parameters()) full.push_back(p->grad);
  net.zero_grad();
  net.forward(x);
  net.backward_params(g);
  const std::vector<nn::Parameter*> params = net.parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_EQ(first_bit_mismatch(full[i], params[i]->grad), -1) << "parameter " << i;
}

// --- finite-difference gradient checks (parameterised shape sweeps) ---------

struct ConvCase {
  Index in_ch;
  Index out_ch;
  Index kernel;
  Index stride;
  Index padding;
  Index length;
  Index batch;
};

class Conv1dGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv1dGradCheck, MatchesFiniteDifferences) {
  const ConvCase c = GetParam();
  Rng rng(11);
  Conv1d layer(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  const Tensor x = Tensor::randn({c.batch, c.in_ch, c.length}, rng);
  const Shape out = {c.batch, c.out_ch, layer.out_length(c.length)};
  const Tensor projection = Tensor::randn(out, rng);
  testing::check_input_gradient(layer, x, projection);
  testing::check_parameter_gradients(layer, x, projection);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv1dGradCheck,
                         ::testing::Values(ConvCase{1, 1, 2, 2, 0, 8, 1},
                                           ConvCase{3, 5, 2, 2, 0, 16, 2},
                                           ConvCase{2, 4, 3, 1, 1, 10, 2},
                                           ConvCase{4, 2, 5, 2, 2, 12, 1},
                                           ConvCase{2, 2, 1, 1, 0, 6, 3}));

struct TransposeCase {
  Index in_ch;
  Index out_ch;
  Index kernel;
  Index stride;
  Index length;
  Index batch;
};

class ConvTranspose1dGradCheck : public ::testing::TestWithParam<TransposeCase> {};

TEST_P(ConvTranspose1dGradCheck, MatchesFiniteDifferences) {
  const TransposeCase c = GetParam();
  Rng rng(13);
  ConvTranspose1d layer(c.in_ch, c.out_ch, c.kernel, c.stride, rng);
  const Tensor x = Tensor::randn({c.batch, c.in_ch, c.length}, rng);
  const Shape out = {c.batch, c.out_ch, (c.length - 1) * c.stride + c.kernel};
  const Tensor projection = Tensor::randn(out, rng);
  testing::check_input_gradient(layer, x, projection);
  testing::check_parameter_gradients(layer, x, projection);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvTranspose1dGradCheck,
                         ::testing::Values(TransposeCase{1, 1, 2, 2, 4, 1},
                                           TransposeCase{4, 2, 2, 2, 8, 2},
                                           TransposeCase{2, 3, 3, 2, 5, 2}));

struct LinearCase {
  Index in;
  Index out;
  Index batch;
};

class LinearGradCheck : public ::testing::TestWithParam<LinearCase> {};

TEST_P(LinearGradCheck, MatchesFiniteDifferences) {
  const LinearCase c = GetParam();
  Rng rng(17);
  Linear layer(c.in, c.out, rng);
  const Tensor x = Tensor::randn({c.batch, c.in}, rng);
  const Tensor projection = Tensor::randn({c.batch, c.out}, rng);
  testing::check_input_gradient(layer, x, projection);
  testing::check_parameter_gradients(layer, x, projection);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LinearGradCheck,
                         ::testing::Values(LinearCase{1, 1, 1}, LinearCase{4, 7, 2},
                                           LinearCase{16, 3, 5}));

TEST(ResidualBlock1dGrad, MatchesFiniteDifferences) {
  Rng rng(19);
  ResidualBlock1d block(2, rng);
  // Zero-initialised biases can land inner conv outputs exactly on the ReLU
  // kink (all taps zeroed by the preceding ReLU), where the loss is not
  // differentiable and finite differences measure the average of the two
  // one-sided slopes. Nudge the biases off the kink before checking.
  for (nn::Parameter* p : block.parameters())
    if (p->name == "bias")
      for (Index i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal(0.0F, 0.05F);
  const Tensor x = Tensor::randn({2, 2, 6}, rng);
  const Tensor projection = Tensor::randn({2, 2, 6}, rng);
  // Small step: larger ones cross ReLU kinks inside the two-conv composition.
  testing::check_input_gradient(block, x, projection, 1e-3F, 2e-2F);
  testing::check_parameter_gradients(block, x, projection, 1e-3F, 2e-2F);
}

TEST(SequentialGrad, MatchesFiniteDifferences) {
  Rng rng(23);
  nn::Sequential net;
  net.emplace<Conv1d>(2, 3, 2, 2, 0, rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(3 * 4, 2, rng);
  const Tensor x = Tensor::randn({2, 2, 8}, rng);
  const Tensor projection = Tensor::randn({2, 2}, rng);
  testing::check_input_gradient(net, x, projection);
  testing::check_parameter_gradients(net, x, projection);
}

}  // namespace
}  // namespace varade
