#include "varade/tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace varade {

Index shape_numel(const Shape& shape) {
  Index n = 1;
  for (Index d : shape) {
    check(d >= 0, "shape dimensions must be non-negative");
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  check(static_cast<Index>(data_.size()) == shape_numel(shape_),
        "data size does not match shape " + shape_to_string(shape_));
}

Tensor Tensor::vector(std::initializer_list<float> values) {
  return Tensor({static_cast<Index>(values.size())}, std::vector<float>(values));
}

Tensor Tensor::matrix(std::initializer_list<std::initializer_list<float>> rows) {
  const Index r = static_cast<Index>(rows.size());
  check(r > 0, "matrix needs at least one row");
  const Index c = static_cast<Index>(rows.begin()->size());
  std::vector<float> data;
  data.reserve(static_cast<std::size_t>(r * c));
  for (const auto& row : rows) {
    check(static_cast<Index>(row.size()) == c, "matrix rows must have equal length");
    data.insert(data.end(), row.begin(), row.end());
  }
  return Tensor({r, c}, std::move(data));
}

Tensor Tensor::randn(const Shape& shape, Rng& rng, float stddev, float mean) {
  Tensor t(shape);
  for (auto& v : t.data_) v = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::rand_uniform(const Shape& shape, Rng& rng, float lo, float hi) {
  Tensor t(shape);
  for (auto& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

Index Tensor::dim(Index axis) const {
  check(axis >= 0 && axis < rank(), "axis out of range");
  return shape_[static_cast<std::size_t>(axis)];
}

Index Tensor::flat_index(Index i, Index j) const {
  return i * shape_[1] + j;
}
Index Tensor::flat_index(Index i, Index j, Index k) const {
  return (i * shape_[1] + j) * shape_[2] + k;
}
Index Tensor::flat_index(Index i, Index j, Index k, Index l) const {
  return ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l;
}

namespace {
[[noreturn]] void index_error(const Shape& shape, Index got_rank) {
  fail("tensor of shape ", shape_to_string(shape), " indexed with ", got_rank,
       " indices or index out of bounds");
}
}  // namespace

float& Tensor::at(Index i) {
  if (rank() != 1 || i < 0 || i >= shape_[0]) index_error(shape_, 1);
  return data_[static_cast<std::size_t>(i)];
}
float Tensor::at(Index i) const { return const_cast<Tensor*>(this)->at(i); }

float& Tensor::at(Index i, Index j) {
  if (rank() != 2 || i < 0 || i >= shape_[0] || j < 0 || j >= shape_[1]) index_error(shape_, 2);
  return data_[static_cast<std::size_t>(flat_index(i, j))];
}
float Tensor::at(Index i, Index j) const { return const_cast<Tensor*>(this)->at(i, j); }

float& Tensor::at(Index i, Index j, Index k) {
  if (rank() != 3 || i < 0 || i >= shape_[0] || j < 0 || j >= shape_[1] || k < 0 ||
      k >= shape_[2])
    index_error(shape_, 3);
  return data_[static_cast<std::size_t>(flat_index(i, j, k))];
}
float Tensor::at(Index i, Index j, Index k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float& Tensor::at(Index i, Index j, Index k, Index l) {
  if (rank() != 4 || i < 0 || i >= shape_[0] || j < 0 || j >= shape_[1] || k < 0 ||
      k >= shape_[2] || l < 0 || l >= shape_[3])
    index_error(shape_, 4);
  return data_[static_cast<std::size_t>(flat_index(i, j, k, l))];
}
float Tensor::at(Index i, Index j, Index k, Index l) const {
  return const_cast<Tensor*>(this)->at(i, j, k, l);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  check(shape_numel(new_shape) == numel(),
        "reshape from " + shape_to_string(shape_) + " to " + shape_to_string(new_shape) +
            " changes element count");
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::transposed() const {
  check(rank() == 2, "transposed() requires a rank-2 tensor");
  const Index r = shape_[0];
  const Index c = shape_[1];
  Tensor out({c, r});
  for (Index i = 0; i < r; ++i)
    for (Index j = 0; j < c; ++j) out[j * r + i] = (*this)[i * c + j];
  return out;
}

Tensor Tensor::row(Index i) const {
  check(rank() == 2, "row() requires a rank-2 tensor");
  check(i >= 0 && i < shape_[0], "row index out of range");
  const Index c = shape_[1];
  std::vector<float> data(data_.begin() + static_cast<std::ptrdiff_t>(i * c),
                          data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * c));
  return Tensor({c}, std::move(data));
}

Tensor Tensor::slice0(Index begin, Index end) const {
  check(rank() >= 1, "slice0 requires rank >= 1");
  check(begin >= 0 && end >= begin && end <= shape_[0], "slice0 bounds out of range");
  Index inner = 1;
  for (std::size_t a = 1; a < shape_.size(); ++a) inner *= shape_[a];
  Shape out_shape = shape_;
  out_shape[0] = end - begin;
  std::vector<float> data(data_.begin() + static_cast<std::ptrdiff_t>(begin * inner),
                          data_.begin() + static_cast<std::ptrdiff_t>(end * inner));
  return Tensor(std::move(out_shape), std::move(data));
}

namespace {
void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b))
    fail("shape mismatch in ", op, ": ", shape_to_string(a.shape()), " vs ",
         shape_to_string(b.shape()));
}
}  // namespace

Tensor& Tensor::operator+=(const Tensor& rhs) {
  require_same_shape(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}
Tensor& Tensor::operator-=(const Tensor& rhs) {
  require_same_shape(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}
Tensor& Tensor::operator*=(const Tensor& rhs) {
  require_same_shape(*this, rhs, "operator*=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
  return *this;
}
Tensor& Tensor::operator/=(const Tensor& rhs) {
  require_same_shape(*this, rhs, "operator/=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] /= rhs.data_[i];
  return *this;
}
Tensor& Tensor::operator+=(float s) {
  for (auto& v : data_) v += s;
  return *this;
}
Tensor& Tensor::operator-=(float s) {
  for (auto& v : data_) v -= s;
  return *this;
}
Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}
Tensor& Tensor::operator/=(float s) {
  for (auto& v : data_) v /= s;
  return *this;
}

Tensor Tensor::map(const std::function<float(float)>& fn) const {
  Tensor out = *this;
  out.map_inplace(fn);
  return out;
}

void Tensor::map_inplace(const std::function<float(float)>& fn) {
  for (auto& v : data_) v = fn(v);
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  check(!data_.empty(), "mean of empty tensor");
  return sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  check(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  check(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

bool Tensor::has_non_finite() const {
  return std::any_of(data_.begin(), data_.end(), [](float v) { return !std::isfinite(v); });
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void axpy(float a, const Tensor& x, Tensor& y) {
  check(x.same_shape(y), "axpy shape mismatch");
  const float* px = x.data();
  float* py = y.data();
  const Index n = x.numel();
  for (Index i = 0; i < n; ++i) py[i] += a * px[i];
}

float dot(const Tensor& a, const Tensor& b) {
  check(a.numel() == b.numel(), "dot requires equal element counts");
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  const Index n = a.numel();
  for (Index i = 0; i < n; ++i) acc += static_cast<double>(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

Tensor clamp(const Tensor& t, float lo, float hi) {
  return t.map([lo, hi](float v) { return std::clamp(v, lo, hi); });
}

bool allclose(const Tensor& a, const Tensor& b, float tol) {
  if (!a.same_shape(b)) return false;
  for (Index i = 0; i < a.numel(); ++i)
    if (!(std::fabs(a[i] - b[i]) <= tol)) return false;
  return true;
}

}  // namespace varade
