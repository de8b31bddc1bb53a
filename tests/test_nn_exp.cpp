// nn::expf and nn::mean_exp_rows: fixed bits on the inputs where glibc's
// copies disagree and at every special-case boundary, a hash over a sparse
// sweep of all bit patterns, and the batched kernel of every kernel table
// against a plain loop of nn::expf bit for bit. The expected values are
// written out here, not taken from libm, so they hold on any libm;
// bench_expf_exhaustive compares all 2^32 floats with the host's libm.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "varade/nn/exp.hpp"
#include "varade/nn/layers.hpp"
#include "varade/tensor/rng.hpp"

namespace varade {
namespace {

Index table_count() { return static_cast<Index>(nn::detail::kernel_tables().size()); }

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Every owned path on one input: nn::expf, each table's expf, and each
/// table's kernel on a one-element row (whose mean is the element's exp).
std::vector<std::uint32_t> all_paths(float x) {
  std::vector<std::uint32_t> out{bits(nn::expf(x))};
  for (Index t = 0; t < table_count(); ++t) {
    out.push_back(bits(nn::detail::expf(t, x)));
    float mean = 0.0F;
    nn::detail::mean_exp_rows(t, &x, 1, 1, &mean);
    out.push_back(bits(mean));
  }
  return out;
}

struct Case {
  float x;
  std::uint32_t expected;
  const char* what;
};

TEST(Expf, FixedBitsAtSpecialCasesAndFmaSensitiveInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<Case> cases = {
      // glibc 2.36's SSE2 expf (no FMA) returns other bits on these two.
      {0x1.04845ep+5F, 0x56fc9f1c, "0x1.f93e38p+46, FMA-sensitive"},
      {-0x1.f8cbb2p+5F, 0x11fa2993, "0x1.f45326p-92, FMA-sensitive"},
      {0.0F, 0x3f800000, "+0 -> 1"},
      {-0.0F, 0x3f800000, "-0 -> 1"},
      {0x1p-149F, 0x3f800000, "smallest denormal -> 1"},
      {-0x1p-149F, 0x3f800000, "negative smallest denormal -> 1"},
      {inf, 0x7f800000, "+inf -> +inf"},
      {-inf, 0x00000000, "-inf -> +0"},
      {0x1.62e42ep6F, 0x7f7fff84, "last x below overflow: 0x1.ffff08p+127"},
      {0x1.62e43p6F, 0x7f800000, "first x above the overflow threshold -> +inf"},
      {88.0F, 0x7ef882b7, "x = 88 takes the main path: 0x1.f1056ep+126"},
      {88.5F, 0x7f4cdcc4, "0x1.99b988p+127"},
      {-88.0F, 0x0041edc4, "subnormal result 0x1.07b71p-127"},
      {-95.0F, 0x00000f64, "subnormal result 0x1.ec8p-138"},
      {-100.0F, 0x0000001b, "subnormal result 0x1.bp-145"},
      {-0x1.9d1d9ep6F, 0x00000001, "main path at the may-underflow threshold"},
      {-0x1.9d1dap6F, 0x00000001, "below the may-underflow threshold: 0x1p-149"},
      {-0x1.9fe368p6F, 0x00000001, "at the underflow threshold: 0x1p-149"},
      {-0x1.9fe36ap6F, 0x00000000, "below the underflow threshold -> +0"},
  };
  for (const Case& c : cases)
    for (const std::uint32_t got : all_paths(c.x))
      EXPECT_EQ(got, c.expected) << c.what << " (x = " << c.x << ")";

  // NaN -> x + x: a quiet NaN keeps its payload, a signalling one is quieted.
  for (const std::uint32_t got : all_paths(std::bit_cast<float>(0x7fc01234U)))
    EXPECT_EQ(got, 0x7fc01234U);
  for (const std::uint32_t got : all_paths(std::bit_cast<float>(0xffa00001U)))
    EXPECT_EQ(got, 0xffe00001U);
}

/// FNV-1a over nn::expf's bits (or table `table`'s expf) at every 257th bit
/// pattern: 16.7M inputs spread over every exponent and both signs.
std::uint64_t sweep_hash(Index table) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 257) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(b));
    const std::uint32_t y = bits(table < 0 ? nn::expf(x) : nn::detail::expf(table, x));
    for (int k = 0; k < 4; ++k) {
      h ^= (y >> (8 * k)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(Expf, SweepOfEvery257thBitPatternHashesToTheCommittedValue) {
  // The same hash of glibc 2.36's expf on an FMA host, which equals nn::expf
  // on all 2^32 floats (bench_expf_exhaustive).
  constexpr std::uint64_t kExpected = 0x4d4e775c41805a0f;
  EXPECT_EQ(sweep_hash(-1), kExpected);
  for (Index t = 0; t < table_count(); ++t)
    EXPECT_EQ(sweep_hash(t), kExpected) << nn::detail::kernel_tables()[static_cast<std::size_t>(t)];
}

/// The scoring rule as a plain loop: each row's double sum of nn::expf in
/// ascending order, divided by n, rounded to float.
std::vector<float> mean_exp_reference(const std::vector<float>& x, Index rows, Index n) {
  std::vector<float> out(static_cast<std::size_t>(rows));
  for (Index r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (Index i = 0; i < n; ++i) sum += static_cast<double>(nn::expf(x[r * n + i]));
    out[r] = static_cast<float>(sum / static_cast<double>(n));
  }
  return out;
}

/// A row whose mean changes with the order of its sum. Its first four
/// elements are exp = v (a float in [2^24, 2^25) with v % 4 == 0), 1 and twice
/// w (in (2^-30, 2^-29)): in ascending order v + 1 is a float midpoint and
/// each w is below half a double ulp, so the mean rounds to even; summed in
/// reverse, w + w + 1 lifts v + 1 by one double ulp and the mean rounds up.
/// The rest are deep-negative inputs whose exps vanish in either order;
/// they stay above -88, so the four-row kernel keeps the block on its
/// vector path.
void order_sensitive_row(float* row, Index n) {
  row[0] = 0x1.0cccccp+4F;   // exp = 0x1.2dc384p+24 = 19776388
  row[1] = 0.0F;             // exp = 1
  row[2] = -0x1.473334p+4F;  // exp = 0x1.694206p-30
  row[3] = -0x1.473334p+4F;
  for (Index i = 4; i < n; ++i) row[i] = -80.0F;
}

TEST(MeanExpRows, EveryTableMatchesTheScalarLoopBitForBit) {
  Rng rng(2027);
  for (const Index n : {1, 3, 4, 7, 8, 86}) {
    for (const Index rows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
      std::vector<float> x(static_cast<std::size_t>(rows * n));
      for (float& v : x) v = rng.normal(-2.0F, 3.0F);  // log-variances around e^-2
      if (n >= 8) order_sensitive_row(x.data() + (rows - 1) * n, n);
      const std::vector<float> expected = mean_exp_reference(x, rows, n);
      for (Index t = 0; t < table_count(); ++t) {
        std::vector<float> got(static_cast<std::size_t>(rows), -1.0F);
        nn::detail::mean_exp_rows(t, x.data(), rows, n, got.data());
        EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size() * sizeof(float)), 0)
            << nn::detail::kernel_tables()[static_cast<std::size_t>(t)] << " rows " << rows
            << " n " << n;
      }
    }
  }
}

TEST(MeanExpRows, TheOrderSensitiveRowRoundsDifferentlyInReverse) {
  // Guards the row above: if its two orders agreed, the parity test could not
  // see a kernel that sums a row out of order.
  constexpr Index n = 8;
  std::vector<float> x(n);
  order_sensitive_row(x.data(), n);
  double forward = 0.0;
  double reverse = 0.0;
  for (Index i = 0; i < n; ++i) forward += static_cast<double>(nn::expf(x[i]));
  for (Index i = n - 1; i >= 0; --i) reverse += static_cast<double>(nn::expf(x[i]));
  EXPECT_NE(static_cast<float>(forward / n), static_cast<float>(reverse / n));
}

TEST(MeanExpRows, SpecialLanesInOneRowOfAFourRowBlock) {
  // Row 1 of the block holds NaN, both infinities and |x| >= 88 on either
  // side of the thresholds; rows 0, 2 and 3 are ordinary. Each row is
  // checked alone against the scalar loop, so the special lanes neither
  // leak into the other rows nor lose glibc's special cases.
  constexpr Index n = 11;
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {88.0F,  -95.0F,  0x1.62e43p6F, -0x1.9fe36ap6F,
                                       -0x1.9d1dap6F, -inf, 0.5F, 88.5F, -100.0F, 1.0F, 2.0F};
  for (const float odd : {std::numeric_limits<float>::quiet_NaN(), inf, 0.25F}) {
    std::vector<float> x(4 * n);
    for (Index i = 0; i < 4 * n; ++i) x[i] = 0.01F * static_cast<float>(i) - 0.2F;
    for (Index i = 0; i < n; ++i) x[n + i] = specials[static_cast<std::size_t>(i)];
    x[n + 6] = odd;
    const std::vector<float> expected = mean_exp_reference(x, 4, n);
    for (Index t = 0; t < table_count(); ++t) {
      std::vector<float> got(4, -1.0F);
      nn::detail::mean_exp_rows(t, x.data(), 4, n, got.data());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(), sizeof(float) * 4), 0)
          << nn::detail::kernel_tables()[static_cast<std::size_t>(t)] << " odd lane " << odd;
    }
    EXPECT_EQ(std::isnan(expected[1]), std::isnan(odd));
  }
}

TEST(MeanExpRows, DispatchedKernelIsTheSelectedTable) {
  const std::vector<std::string> tables = nn::detail::kernel_tables();
  Index selected = -1;
  for (Index t = 0; t < table_count(); ++t)
    if (tables[static_cast<std::size_t>(t)] == nn::conv1d_kernel_name()) selected = t;
  ASSERT_GE(selected, 0);
  std::vector<float> x(5 * 86);
  Rng rng(7);
  for (float& v : x) v = rng.normal(0.0F, 2.0F);
  std::vector<float> a(5), b(5);
  nn::mean_exp_rows(x.data(), 5, 86, a.data());
  nn::detail::mean_exp_rows(selected, x.data(), 5, 86, b.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * 5), 0);
}

}  // namespace
}  // namespace varade
