// Unit tests for the dense tensor substrate.
#include <gtest/gtest.h>

#include "varade/tensor/tensor.hpp"

namespace varade {
namespace {

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({5}), 5);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_THROW(shape_numel({-1, 2}), Error);
}

TEST(Tensor, ConstructionAndFill) {
  Tensor t({2, 3}, 1.5F);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 6);
  for (Index i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 1.5F);
  t.zero();
  EXPECT_FLOAT_EQ(t.sum(), 0.0F);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), Error);
}

TEST(Tensor, VectorAndMatrixBuilders) {
  const Tensor v = Tensor::vector({1.0F, 2.0F, 3.0F});
  EXPECT_EQ(v.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(v.at(1), 2.0F);

  const Tensor m = Tensor::matrix({{1.0F, 2.0F}, {3.0F, 4.0F}});
  EXPECT_EQ(m.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0F);
  EXPECT_THROW(Tensor::matrix({{1.0F}, {1.0F, 2.0F}}), Error);
}

TEST(Tensor, BoundsCheckedAccess) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at(2, 0), Error);
  EXPECT_THROW(t.at(0, 3), Error);
  EXPECT_THROW(t.at(0), Error);  // wrong rank
  Tensor u({4});
  EXPECT_THROW(u.at(0, 0), Error);
  EXPECT_NO_THROW(u.at(3));
}

TEST(Tensor, RankThreeFourAccess) {
  Tensor t({2, 3, 4}, 0.0F);
  t.at(1, 2, 3) = 7.0F;
  EXPECT_FLOAT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0F);
  Tensor q({2, 2, 2, 2});
  q.at(1, 0, 1, 0) = 3.0F;
  EXPECT_FLOAT_EQ(q[8 + 2], 3.0F);
  EXPECT_THROW(q.at(2, 0, 0, 0), Error);
}

TEST(Tensor, Reshape) {
  Tensor t({2, 6}, 1.0F);
  const Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_THROW(t.reshaped({5, 2}), Error);
}

TEST(Tensor, Transpose) {
  const Tensor m = Tensor::matrix({{1, 2, 3}, {4, 5, 6}});
  const Tensor mt = m.transposed();
  EXPECT_EQ(mt.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(mt.at(0, 1), 4.0F);
  EXPECT_FLOAT_EQ(mt.at(2, 0), 3.0F);
  EXPECT_THROW(Tensor({2, 2, 2}).transposed(), Error);
}

TEST(Tensor, RowAndSlice) {
  const Tensor m = Tensor::matrix({{1, 2}, {3, 4}, {5, 6}});
  const Tensor r = m.row(1);
  EXPECT_EQ(r.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(r.at(0), 3.0F);
  const Tensor s = m.slice0(1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at(0, 0), 3.0F);
  EXPECT_THROW(m.slice0(2, 1), Error);
  EXPECT_THROW(m.row(3), Error);
}

TEST(Tensor, ElementwiseArithmetic) {
  const Tensor a = Tensor::vector({1, 2, 3});
  const Tensor b = Tensor::vector({4, 5, 6});
  EXPECT_EQ((a + b), Tensor::vector({5, 7, 9}));
  EXPECT_EQ((b - a), Tensor::vector({3, 3, 3}));
  EXPECT_EQ((a * b), Tensor::vector({4, 10, 18}));
  EXPECT_EQ((b / a), Tensor::vector({4, 2.5F, 2}));
  EXPECT_EQ((a * 2.0F), Tensor::vector({2, 4, 6}));
  EXPECT_EQ((2.0F * a), Tensor::vector({2, 4, 6}));
  EXPECT_EQ((a + 1.0F), Tensor::vector({2, 3, 4}));
  EXPECT_THROW(a + Tensor({4}), Error);
}

TEST(Tensor, MapAndReductions) {
  const Tensor a = Tensor::vector({-1, 2, -3});
  EXPECT_FLOAT_EQ(a.sum(), -2.0F);
  EXPECT_FLOAT_EQ(a.mean(), -2.0F / 3.0F);
  EXPECT_FLOAT_EQ(a.min(), -3.0F);
  EXPECT_FLOAT_EQ(a.max(), 2.0F);
  EXPECT_NEAR(a.norm(), std::sqrt(14.0F), 1e-6);
  EXPECT_THROW(Tensor({0}).mean(), Error);
}

TEST(Tensor, ClampAndNonFinite) {
  const Tensor a = Tensor::vector({-2, 0.5F, 3});
  EXPECT_EQ(clamp(a, -1.0F, 1.0F), Tensor::vector({-1, 0.5F, 1}));
  Tensor b = Tensor::vector({1, 2});
  EXPECT_FALSE(b.has_non_finite());
  b[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(b.has_non_finite());
  b[0] = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(b.has_non_finite());
}

TEST(Tensor, AxpyAndDot) {
  const Tensor x = Tensor::vector({1, 2, 3});
  Tensor y = Tensor::vector({1, 1, 1});
  axpy(2.0F, x, y);
  EXPECT_EQ(y, Tensor::vector({3, 5, 7}));
  EXPECT_FLOAT_EQ(dot(x, x), 14.0F);
  EXPECT_THROW(dot(x, Tensor({2})), Error);
}

TEST(Tensor, Allclose) {
  const Tensor a = Tensor::vector({1, 2});
  const Tensor b = Tensor::vector({1.0001F, 2});
  EXPECT_TRUE(allclose(a, b, 1e-3F));
  EXPECT_FALSE(allclose(a, b, 1e-6F));
  EXPECT_FALSE(allclose(a, Tensor({3})));
}

TEST(Rng, Determinism) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(8);
  EXPECT_NE(Rng(7).next_u64(), c.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0F, 5.0F);
    EXPECT_GE(v, -2.0F);
    EXPECT_LT(v, 5.0F);
  }
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float v = rng.normal(1.0F, 2.0F);
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(TensorRandom, RandnStats) {
  Rng rng(5);
  const Tensor t = Tensor::randn({10000}, rng, 0.5F);
  EXPECT_NEAR(t.mean(), 0.0F, 0.02F);
  const float var = dot(t, t) / static_cast<float>(t.numel());
  EXPECT_NEAR(var, 0.25F, 0.02F);
}

}  // namespace
}  // namespace varade
