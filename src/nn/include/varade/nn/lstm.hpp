// Long Short-Term Memory layer with full backpropagation through time.
//
// Operates on channels-first sequences [N, C, L] (consistent with Conv1d) and
// returns the full hidden sequence [N, H, L], so layers stack naturally; use
// nn::LastTimeStep to extract the final hidden state.
//
// Gate order in the fused weight matrices is (input, forget, cell, output).
#pragma once

#include "varade/nn/module.hpp"

namespace varade::nn {

class Lstm : public Module {
 public:
  Lstm(Index input_size, Index hidden_size, Rng& rng);

  /// Runs the layer's one step kernel (lstm.cpp) over the sequence, which
  /// also writes the per-step gate/cell/hidden caches backward() needs.
  Tensor forward(const Tensor& x) override;
  /// The same step kernel without the caches: rolling h/c state only, so B
  /// contexts stream through in one call with no per-step allocations.
  Tensor forward_inference(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&w_ih_, &w_hh_, &bias_}; }
  std::string name() const override { return "Lstm"; }
  Shape output_shape(const Shape& in) const override;
  long flops(const Shape& in) const override;

  Index input_size() const { return input_; }
  Index hidden_size() const { return hidden_; }

 private:
  Index input_;
  Index hidden_;
  Parameter w_ih_;  // [4H, C]
  Parameter w_hh_;  // [4H, H]
  Parameter bias_;  // [4H]

  // Caches from the last forward pass (indexed [t][n*...]).
  Tensor cached_input_;              // [N, C, L]
  std::vector<Tensor> gate_i_;       // each [N, H]
  std::vector<Tensor> gate_f_;
  std::vector<Tensor> gate_g_;
  std::vector<Tensor> gate_o_;
  std::vector<Tensor> cell_;         // c_t, [N, H]
  std::vector<Tensor> cell_tanh_;    // tanh(c_t), [N, H]
  std::vector<Tensor> hidden_seq_;   // h_t, [N, H] (h_{-1} stored at index 0 shifted)
};

}  // namespace varade::nn
