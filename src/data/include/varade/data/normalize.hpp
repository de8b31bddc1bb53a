// Min-max normalisation to [-1, 1], fitted on the training split only
// (paper section 4.3: "data are normalized in the range [-1, 1] based on the
// minimum and maximum values of each sensor's data").
#pragma once

#include <iosfwd>
#include <vector>

#include "varade/data/timeseries.hpp"

namespace varade::data {

class MinMaxNormalizer {
 public:
  MinMaxNormalizer() = default;

  /// Learns per-channel min/max from a series. Throws on non-finite input
  /// (NaN would silently fall out of the min/max comparisons otherwise).
  void fit(const MultivariateSeries& series);

  /// Learns per-channel min/max from a [n, d] tensor; rejects non-finite
  /// values, naming the offending channel and row.
  void fit(const Tensor& x);

  /// Maps one sample's values into [-1, 1]; constant channels map to 0.
  /// transform_rows(in, 1, out).
  void transform_sample(const float* in, float* out) const;

  /// transform_sample over `rows` contiguous channel-count-wide rows
  /// (`in`/`out` hold rows * n_channels() floats) in one vectorisable pass —
  /// the normalisation's one expression, so slab-resident serving state and
  /// the per-sample monitor normalise bit-identically.
  void transform_rows(const float* in, Index rows, float* out) const;
  Tensor transform(const Tensor& x) const;
  MultivariateSeries transform(const MultivariateSeries& series) const;

  /// Inverse map back to original units.
  Tensor inverse_transform(const Tensor& x) const;

  bool fitted() const { return !mins_.empty(); }
  Index n_channels() const { return static_cast<Index>(mins_.size()); }
  float channel_min(Index c) const;
  float channel_max(Index c) const;

  void save(std::ostream& out) const;

  /// Restores a saved normalizer; rejects streams whose per-channel bounds
  /// are non-finite or have max < min (corrupt or hand-crafted data).
  void load(std::istream& in);

 private:
  std::vector<float> mins_;
  std::vector<float> maxs_;
};

}  // namespace varade::data
