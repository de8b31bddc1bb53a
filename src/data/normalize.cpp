#include "varade/data/normalize.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

namespace varade::data {

void MinMaxNormalizer::fit(const MultivariateSeries& series) {
  check(series.length() > 0, "cannot fit normalizer on empty series");
  fit(series.to_tensor());
}

void MinMaxNormalizer::fit(const Tensor& x) {
  check(x.rank() == 2 && x.dim(0) > 0, "normalizer fit expects non-empty [n, d]");
  const Index n = x.dim(0);
  const Index d = x.dim(1);
  mins_.assign(static_cast<std::size_t>(d), std::numeric_limits<float>::max());
  maxs_.assign(static_cast<std::size_t>(d), std::numeric_limits<float>::lowest());
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < d; ++j) {
      const float v = x[i * d + j];
      // Rejected per element: std::min/std::max comparisons silently drop
      // NaN (the comparison is false, keeping the other operand), so a
      // post-loop check of mins_/maxs_ could not detect poisoned input.
      if (!std::isfinite(v)) {
        mins_.clear();
        maxs_.clear();
        fail("normalizer fit data must be finite (channel ", j, ", row ", i, " is ", v, ")");
      }
      auto js = static_cast<std::size_t>(j);
      mins_[js] = std::min(mins_[js], v);
      maxs_[js] = std::max(maxs_[js], v);
    }
  }
}

void MinMaxNormalizer::transform_sample(const float* in, float* out) const {
  transform_rows(in, 1, out);
}

void MinMaxNormalizer::transform_rows(const float* in, Index rows, float* out) const {
  check(fitted(), "normalizer used before fit");
  const Index d = n_channels();
  const float* mins = mins_.data();
  const float* maxs = maxs_.data();
  for (Index i = 0; i < rows; ++i) {
    const float* src = in + i * d;
    float* dst = out + i * d;
    for (Index j = 0; j < d; ++j) {
      // No hoisted reciprocal: this division is the normalisation's one
      // expression, which every scoring path shares.
      const float range = maxs[j] - mins[j];
      dst[j] = range > 0.0F ? 2.0F * (src[j] - mins[j]) / range - 1.0F : 0.0F;
    }
  }
}

Tensor MinMaxNormalizer::transform(const Tensor& x) const {
  check(fitted(), "normalizer used before fit");
  check(x.rank() == 2 && x.dim(1) == n_channels(), "transform expects [n, " +
                                                       std::to_string(n_channels()) + "]");
  Tensor out(x.shape());
  const Index n = x.dim(0);
  const Index d = x.dim(1);
  for (Index i = 0; i < n; ++i) transform_sample(x.data() + i * d, out.data() + i * d);
  return out;
}

MultivariateSeries MinMaxNormalizer::transform(const MultivariateSeries& series) const {
  check(fitted(), "normalizer used before fit");
  check(series.n_channels() == n_channels(), "series channel count mismatch");
  MultivariateSeries out(series.n_channels(), series.channels());
  out.set_sample_rate_hz(series.sample_rate_hz());
  std::vector<float> buf(static_cast<std::size_t>(series.n_channels()));
  for (Index t = 0; t < series.length(); ++t) {
    transform_sample(series.sample(t), buf.data());
    out.append(buf.data(), series.label(t));
  }
  return out;
}

Tensor MinMaxNormalizer::inverse_transform(const Tensor& x) const {
  check(fitted(), "normalizer used before fit");
  check(x.rank() == 2 && x.dim(1) == n_channels(), "inverse_transform shape mismatch");
  Tensor out(x.shape());
  const Index n = x.dim(0);
  const Index d = x.dim(1);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < d; ++j) {
      auto js = static_cast<std::size_t>(j);
      const float range = maxs_[js] - mins_[js];
      out[i * d + j] = range > 0.0F
                           ? mins_[js] + (x[i * d + j] + 1.0F) * 0.5F * range
                           : mins_[js];
    }
  }
  return out;
}

float MinMaxNormalizer::channel_min(Index c) const {
  check(c >= 0 && c < n_channels(), "channel index out of range");
  return mins_[static_cast<std::size_t>(c)];
}

float MinMaxNormalizer::channel_max(Index c) const {
  check(c >= 0 && c < n_channels(), "channel index out of range");
  return maxs_[static_cast<std::size_t>(c)];
}

void MinMaxNormalizer::save(std::ostream& out) const {
  check(fitted(), "cannot save unfitted normalizer");
  const auto d = static_cast<std::uint64_t>(mins_.size());
  out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  out.write(reinterpret_cast<const char*>(mins_.data()),
            static_cast<std::streamsize>(d * sizeof(float)));
  out.write(reinterpret_cast<const char*>(maxs_.data()),
            static_cast<std::streamsize>(d * sizeof(float)));
  check(static_cast<bool>(out), "failed writing normalizer");
}

void MinMaxNormalizer::load(std::istream& in) {
  std::uint64_t d = 0;
  in.read(reinterpret_cast<char*>(&d), sizeof(d));
  check(static_cast<bool>(in) && d > 0 && d < (1U << 24), "malformed normalizer stream");
  mins_.resize(d);
  maxs_.resize(d);
  in.read(reinterpret_cast<char*>(mins_.data()), static_cast<std::streamsize>(d * sizeof(float)));
  in.read(reinterpret_cast<char*>(maxs_.data()), static_cast<std::streamsize>(d * sizeof(float)));
  if (!in) {
    mins_.clear();
    maxs_.clear();
    fail("unexpected end of normalizer stream");
  }
  // A fitted normalizer always satisfies min <= max with finite bounds
  // (fit() rejects non-finite data), so anything else is a corrupt or
  // hand-crafted stream. The isfinite checks also catch NaN, which would
  // sail through the >= comparison below.
  for (std::size_t j = 0; j < d; ++j) {
    if (!std::isfinite(mins_[j]) || !std::isfinite(maxs_[j]) || maxs_[j] < mins_[j]) {
      const float lo = mins_[j];
      const float hi = maxs_[j];
      mins_.clear();
      maxs_.clear();
      fail("malformed normalizer stream: channel ", j, " has min ", lo, ", max ", hi);
    }
  }
}

}  // namespace varade::data
