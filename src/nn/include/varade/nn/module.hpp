// Layer abstraction for the varade neural-network substrate.
//
// The library uses explicit per-layer forward/backward (Caffe-style) rather
// than a dynamic autograd tape: the hot path is allocation-predictable, every
// layer is independently finite-difference-testable, and the edge profiler can
// query static per-layer cost (FLOPs, parameter bytes, activation bytes).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "varade/tensor/tensor.hpp"

namespace varade::nn {

/// A trainable tensor with its accumulated gradient.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

/// Base class for all layers.
///
/// Contract:
///  - forward(x) caches whatever the layer needs and returns the output.
///  - backward(grad_out) must be called after forward with a gradient of the
///    same shape as the forward output; it accumulates parameter gradients
///    (+=) and returns the gradient w.r.t. the forward input.
///  - backward_params(grad_out) accumulates the same parameter gradients, bit
///    for bit, and may skip the input gradient: for a model's first layer,
///    whose input gradient nobody reads.
///  - output_shape/flops describe the layer statically for profiling; shapes
///    exclude the batch dimension handled uniformly by convention [N, ...].
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// backward() without the input gradient. The default runs backward() and
  /// drops its result; Conv1d and Linear skip the dX loops.
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  /// Inference-only forward: identical arithmetic to forward() but skips the
  /// activation caches backward() needs, so no per-call copies or per-step
  /// cache allocations. The default falls back to forward(), so every layer
  /// is safe by construction; layers that cache override it. Must never be
  /// interleaved with forward()/backward() training steps expecting caches.
  virtual Tensor forward_inference(const Tensor& x) { return forward(x); }

  /// Trainable parameters (possibly empty). Pointers remain valid for the
  /// lifetime of the module.
  virtual std::vector<Parameter*> parameters() { return {}; }

  virtual std::string name() const = 0;

  /// Output shape for a single sample of shape `in` (no batch dim).
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Multiply-accumulate-dominated operation count for one sample.
  virtual long flops(const Shape& in) const = 0;

  /// Resets all parameter gradients to zero.
  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.zero();
  }

  /// Total number of trainable scalars.
  long num_params() {
    long n = 0;
    for (Parameter* p : parameters()) n += p->value.numel();
    return n;
  }

  /// Bytes of parameter storage (float32).
  long param_bytes() { return num_params() * static_cast<long>(sizeof(float)); }
};

/// Copies parameter values `from` -> `to` (same architecture expected);
/// throws on count or shape mismatch. Used to replicate fitted models.
inline void copy_parameter_values(const std::vector<Parameter*>& from,
                                  const std::vector<Parameter*>& to) {
  check(from.size() == to.size(), "replica parameter count mismatch");
  for (std::size_t i = 0; i < from.size(); ++i) {
    check(from[i]->value.same_shape(to[i]->value), "replica parameter shape mismatch");
    to[i]->value = from[i]->value;
  }
}

/// Ordered container of layers; forwards/backwards through the chain.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns a reference for chaining.
  Sequential& add(std::unique_ptr<Module> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  /// Convenience: construct the layer in place.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& x) override {
    Tensor h = x;
    for (auto& l : layers_) h = l->forward(h);
    return h;
  }

  Tensor forward_inference(const Tensor& x) override {
    Tensor h = x;
    for (auto& l : layers_) h = l->forward_inference(h);
    return h;
  }

  Tensor backward(const Tensor& grad_out) override {
    Tensor g = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
    return g;
  }

  /// backward() through every layer but the first, which runs
  /// backward_params(): the chain's input gradient is never formed.
  void backward_params(const Tensor& grad_out) override {
    if (layers_.empty()) return;
    Tensor g = grad_out;
    for (std::size_t i = layers_.size() - 1; i > 0; --i) g = layers_[i]->backward(g);
    layers_.front()->backward_params(g);
  }

  std::vector<Parameter*> parameters() override {
    std::vector<Parameter*> ps;
    for (auto& l : layers_) {
      auto sub = l->parameters();
      ps.insert(ps.end(), sub.begin(), sub.end());
    }
    return ps;
  }

  std::string name() const override { return "Sequential"; }

  Shape output_shape(const Shape& in) const override {
    Shape s = in;
    for (const auto& l : layers_) s = l->output_shape(s);
    return s;
  }

  long flops(const Shape& in) const override {
    long total = 0;
    Shape s = in;
    for (const auto& l : layers_) {
      total += l->flops(s);
      s = l->output_shape(s);
    }
    return total;
  }

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }
  const Module& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace varade::nn
