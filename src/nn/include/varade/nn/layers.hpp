// Feed-forward layers: Linear, activations, Conv1d, ConvTranspose1d, Flatten,
// LastTimeStep, and the 1-D residual block used by the autoencoder baseline.
//
// Tensor conventions:
//  - Dense layers operate on [N, F].
//  - Temporal layers operate on channels-first sequences [N, C, L].
#pragma once

#include "varade/nn/module.hpp"

namespace varade::nn {

/// A Linear's or Conv1d's weights packed for the vectorised inference
/// kernels: [rows][out_pad] doubles (rows = in for Linear, in_ch * kernel for
/// Conv1d; out_pad = outputs rounded up to the kernel's lane block, padded
/// lanes zero) followed by one bias row. A snapshot of the parameters at
/// pack() time: later writes to the layer are not seen by it.
struct PackedWeights {
  std::vector<double> values;
  Index out_pad = 0;
};

/// Fully connected layer: y = x W^T + b, x: [N, in], y: [N, out].
class Linear : public Module {
 public:
  Linear(Index in_features, Index out_features, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }
  Shape output_shape(const Shape& in) const override;
  long flops(const Shape& in) const override;

  /// Packs the current weights for forward_packed(). A model that is only
  /// read after fitting packs once instead of on every forward_inference().
  PackedWeights pack() const;
  /// forward_inference() on raw rows with pre-packed weights: x [n, in] ->
  /// y [n, out], bit-identical to forward_inference() with the weights `w`
  /// was packed from. Throws varade::Error if `w` was not packed for this
  /// layer's in x out (one O(1) check); the rows of x are not checked.
  void forward_packed(const PackedWeights& w, const float* x, Index n, float* y) const;

  Index in_features() const { return in_; }
  Index out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  // forward() caches the input and calls forward_inference(): weights packed
  // to [in][out] doubles, a kernel vectorised across outputs that feeds
  // several rows from each weight load and accumulates in double with fused
  // multiply-add (exact products, so no bit changes). backward() and
  // backward_params() run one kernel vectorised across inputs, in float with
  // no fused multiply-add: dW[o][j] sums over rows in ascending order, dX[i][j]
  // over outputs in ascending order, exact-zero grad_out entries skipped.
  // Both kernels are pinned bit for bit to test-local scalar references by
  // test_nn_layers.
  Tensor run_backward(const Tensor& grad_out, bool input_grad);

  Index in_;
  Index out_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor cached_input_;
};

/// Rectified linear activation (any shape).
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "ReLU"; }
  Shape output_shape(const Shape& in) const override { return in; }
  long flops(const Shape& in) const override { return shape_numel(in); }

 private:
  Tensor cached_input_;
};

/// 1-D convolution over [N, C, L] with configurable kernel/stride/padding.
///
/// VARADE uses kernel_size = stride = 2 and no padding, halving the time
/// dimension at every layer (paper section 3.1); the autoencoder baseline uses
/// kernel 3 / stride 1 / padding 1 inside its residual blocks.
class Conv1d : public Module {
 public:
  Conv1d(Index in_channels, Index out_channels, Index kernel_size, Index stride, Index padding,
         Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv1d"; }
  Shape output_shape(const Shape& in) const override;
  long flops(const Shape& in) const override;

  Index in_channels() const { return in_ch_; }
  Index out_channels() const { return out_ch_; }
  Index kernel_size() const { return kernel_; }
  Index stride() const { return stride_; }
  Index padding() const { return padding_; }

  /// Output length for an input of length `l`.
  Index out_length(Index l) const;

  /// Packs the current weights for forward_packed(), as Linear::pack().
  PackedWeights pack() const;
  /// forward_inference() on raw rows with pre-packed weights: x [n, in_ch,
  /// l_in] -> y [n, out_ch, out_length(l_in)], bit-identical to
  /// forward_inference() with the weights `w` was packed from. Throws
  /// varade::Error if `w` was not packed for this layer's channels and
  /// kernel (one O(1) check) or out_length() rejects l_in.
  void forward_packed(const PackedWeights& w, const float* x, Index n, Index l_in,
                      float* y) const;

 private:
  // forward() caches the input and calls forward_inference(): weights packed
  // to [ci][k][co] doubles, a kernel vectorised across output channels that
  // feeds two batch rows from each weight load and accumulates in double with
  // fused multiply-add (exact products, so no bit changes).
  // backward() and backward_params() run one kernel vectorised across input
  // channels over transposed copies, in float with no fused multiply-add
  // (fusing would skip the product's rounding): dW sums over (b, t)
  // ascending, dX over (co, t, k) ascending, exact-zero grad_out entries
  // skipped, as the scalar loop did. Both kernels are pinned bit for bit to
  // test-local scalar references by test_nn_layers.
  Tensor run_backward(const Tensor& grad_out, bool input_grad);

  Index in_ch_;
  Index out_ch_;
  Index kernel_;
  Index stride_;
  Index padding_;
  Parameter weight_;  // [out_ch, in_ch, kernel]
  Parameter bias_;    // [out_ch]
  Tensor cached_input_;
};

/// Name of the kernel set selected by the runtime dispatch table ("avx2+fma"
/// or "portable"): resolved once at first use via __builtin_cpu_supports, shared
/// by the forward() and forward_inference() of Conv1d, Linear and
/// ConvTranspose1d, by the backward() and backward_params() of Conv1d and
/// Linear, and by nn::expf and nn::mean_exp_rows (exp.hpp). Exposed so tests
/// can assert the vectorised path
/// actually runs (including under sanitizers, where the previous ifunc-based
/// multiversioning silently fell back to scalar).
const char* conv1d_kernel_name();

namespace detail {
/// Test-only access to every kernel table this host can run, so the parity
/// tests reach the portable copy on an AVX2 host as well: the table names in
/// index order ("portable", then "avx2+fma" where the CPU has both), and
/// Linear::forward_packed() / Conv1d::forward_packed() through table `table`.
std::vector<std::string> kernel_tables();
void linear_forward_packed(Index table, const Linear& layer, const PackedWeights& w,
                           const float* x, Index n, float* y);
void conv1d_forward_packed(Index table, const Conv1d& conv, const PackedWeights& w,
                           const float* x, Index n, Index l_in, float* y);
}  // namespace detail

/// 1-D transposed convolution (upsampling), inverse geometry of Conv1d with
/// the same kernel/stride and no padding: L_out = (L_in - 1) * stride + k.
class ConvTranspose1d : public Module {
 public:
  ConvTranspose1d(Index in_channels, Index out_channels, Index kernel_size, Index stride,
                  Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "ConvTranspose1d"; }
  Shape output_shape(const Shape& in) const override;
  long flops(const Shape& in) const override;

 private:
  // forward() caches the input and calls forward_inference(): one scatter
  // kernel for every geometry, overlapping ones included, pinned bit for bit
  // to a test-local scalar reference by test_nn_layers.
  Index in_ch_;
  Index out_ch_;
  Index kernel_;
  Index stride_;
  Parameter weight_;  // [in_ch, out_ch, kernel]
  Parameter bias_;    // [out_ch]
  Tensor cached_input_;
};

/// Collapses [N, C, L] to [N, C*L] (row-major, i.e. channel-major blocks).
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }
  Shape output_shape(const Shape& in) const override;
  long flops(const Shape&) const override { return 0; }

 private:
  Shape cached_shape_;
};

/// Selects the last time step of a sequence: [N, C, L] -> [N, C].
class LastTimeStep : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "LastTimeStep"; }
  Shape output_shape(const Shape& in) const override;
  long flops(const Shape&) const override { return 0; }

 private:
  Shape cached_shape_;
};

/// Pre-activation 1-D residual block (He et al. [7] adapted to sequences):
///   y = x + Conv(ReLU(Conv(ReLU(x))))
/// with kernel 3, stride 1, padding 1, so the shape is preserved.
class ResidualBlock1d : public Module {
 public:
  ResidualBlock1d(Index channels, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "ResidualBlock1d"; }
  Shape output_shape(const Shape& in) const override { return in; }
  long flops(const Shape& in) const override;

 private:
  ReLU relu1_;
  Conv1d conv1_;
  ReLU relu2_;
  Conv1d conv2_;
};

}  // namespace varade::nn
