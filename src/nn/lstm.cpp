// Lstm: one cell update, step(), blocked over batch rows. forward() and
// forward_inference() both run it; forward() also has it write the gate and
// cell caches backward() reads, forward_inference() keeps rolling h/c state
// only. The per-unit scalar loop it must match bit for bit lives in
// test_nn_lstm as the test-local reference.
#include "varade/nn/lstm.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "varade/nn/init.hpp"

namespace varade::nn {

namespace {
inline float sigmoid(float v) { return 1.0F / (1.0F + std::exp(-v)); }

/// The operands of one time step t over n batch rows.
struct Step {
  const float* w_ih = nullptr;  // [4H, C]
  const float* w_hh = nullptr;  // [4H, H]
  const float* bias = nullptr;  // [4H]
  Index input = 0;
  Index hidden = 0;
  const float* x = nullptr;  // [n, C, l]
  Index l = 0;
  float* out = nullptr;  // [n, H, l], column t written
  Index t = 0;
  const float* h_prev = nullptr;  // [n, H], step t - 1
  const float* c_prev = nullptr;
  float* h_cur = nullptr;  // [n, H], step t
  float* c_cur = nullptr;
  // The activations backward() needs, each [n, H]; null for inference.
  float* gate_i = nullptr;
  float* gate_f = nullptr;
  float* gate_g = nullptr;
  float* gate_o = nullptr;
  float* cell_tanh = nullptr;
};

/// Rows [b0, b0 + R) of one step. Each unit's four gate pre-activations are
/// serial double-accumulate chains (the bias, then w_ih in channel order,
/// then w_hh in unit order), so one chain runs at the latency of a
/// multiply-add, not its throughput. The block keeps 4 * R independent chains in flight per
/// weight load — the four gates of R rows — without changing any chain's
/// order. R is a compile-time width so the accumulators stay in registers.
template <Index R>
void step_rows(const Step& s, Index b0) {
  const Index input = s.input;
  const Index hidden = s.hidden;
  const float* xs[R];  // row r's input channel 0 at step t
  const float* hs[R];  // row r's previous hidden state
  for (Index r = 0; r < R; ++r) {
    xs[r] = s.x + (b0 + r) * input * s.l + s.t;
    hs[r] = s.h_prev + (b0 + r) * hidden;
  }
  for (Index h = 0; h < hidden; ++h) {
    double pre[4][R];
    for (Index g = 0; g < 4; ++g)
      for (Index r = 0; r < R; ++r) pre[g][r] = s.bias[g * hidden + h];
    for (Index c = 0; c < input; ++c) {
      double xv[R];
      for (Index r = 0; r < R; ++r) xv[r] = xs[r][c * s.l];
      for (Index g = 0; g < 4; ++g) {
        const double wv = s.w_ih[(g * hidden + h) * input + c];
        for (Index r = 0; r < R; ++r) pre[g][r] += wv * xv[r];
      }
    }
    for (Index k = 0; k < hidden; ++k) {
      double hv[R];
      for (Index r = 0; r < R; ++r) hv[r] = hs[r][k];
      for (Index g = 0; g < 4; ++g) {
        const double wv = s.w_hh[(g * hidden + h) * hidden + k];
        for (Index r = 0; r < R; ++r) pre[g][r] += wv * hv[r];
      }
    }
    for (Index r = 0; r < R; ++r) {
      const Index idx = (b0 + r) * hidden + h;
      const float i = sigmoid(static_cast<float>(pre[0][r]));
      const float f = sigmoid(static_cast<float>(pre[1][r]));
      const float g = std::tanh(static_cast<float>(pre[2][r]));
      const float o = sigmoid(static_cast<float>(pre[3][r]));
      const float c = f * s.c_prev[idx] + i * g;
      const float tc = std::tanh(c);
      s.c_cur[idx] = c;
      s.h_cur[idx] = o * tc;
      s.out[idx * s.l + s.t] = s.h_cur[idx];
      if (s.gate_i != nullptr) {
        s.gate_i[idx] = i;
        s.gate_f[idx] = f;
        s.gate_g[idx] = g;
        s.gate_o[idx] = o;
        s.cell_tanh[idx] = tc;
      }
    }
  }
}

/// The layer's one cell update, shared by forward() and forward_inference():
/// step s.t for all n rows, in blocks of 8 rows and then 4, 2 and 1 for the
/// rest. Every block width runs the same arithmetic per row, so a row's
/// bits do not depend on n or on its place in the batch.
void step(const Step& s, Index n) {
  Index b0 = 0;
  for (; b0 + 8 <= n; b0 += 8) step_rows<8>(s, b0);
  for (; b0 + 4 <= n; b0 += 4) step_rows<4>(s, b0);
  for (; b0 + 2 <= n; b0 += 2) step_rows<2>(s, b0);
  for (; b0 < n; ++b0) step_rows<1>(s, b0);
}
}  // namespace

Lstm::Lstm(Index input_size, Index hidden_size, Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      w_ih_("w_ih", xavier_uniform({4 * hidden_size, input_size}, input_size, hidden_size, rng)),
      w_hh_("w_hh", xavier_uniform({4 * hidden_size, hidden_size}, hidden_size, hidden_size, rng)),
      bias_("bias", Tensor({4 * hidden_size})) {
  check(input_size > 0 && hidden_size > 0, "Lstm dimensions must be positive");
  // Initialise the forget-gate bias to 1 (standard trick for gradient flow).
  for (Index h = 0; h < hidden_; ++h) bias_.value[hidden_ + h] = 1.0F;
}

Tensor Lstm::forward(const Tensor& x) {
  check(x.rank() == 3 && x.dim(1) == input_,
        "Lstm expected [N, " + std::to_string(input_) + ", L], got " +
            shape_to_string(x.shape()));
  cached_input_ = x;
  const Index n = x.dim(0);
  const Index l = x.dim(2);
  for (std::vector<Tensor>* seq :
       {&gate_i_, &gate_f_, &gate_g_, &gate_o_, &cell_, &cell_tanh_, &hidden_seq_})
    seq->assign(static_cast<std::size_t>(l), Tensor({n, hidden_}));

  // Step t reads h/c of step t - 1 straight from the caches backward() uses.
  const Tensor zero_state({n, hidden_});
  Tensor out({n, hidden_, l});
  Step s{w_ih_.value.data(), w_hh_.value.data(), bias_.value.data(), input_, hidden_,
         x.data(), l, out.data()};
  for (Index t = 0; t < l; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    s.t = t;
    s.h_prev = t > 0 ? hidden_seq_[ts - 1].data() : zero_state.data();
    s.c_prev = t > 0 ? cell_[ts - 1].data() : zero_state.data();
    s.h_cur = hidden_seq_[ts].data();
    s.c_cur = cell_[ts].data();
    s.gate_i = gate_i_[ts].data();
    s.gate_f = gate_f_[ts].data();
    s.gate_g = gate_g_[ts].data();
    s.gate_o = gate_o_[ts].data();
    s.cell_tanh = cell_tanh_[ts].data();
    step(s, n);
  }
  return out;
}

Tensor Lstm::forward_inference(const Tensor& x) {
  check(x.rank() == 3 && x.dim(1) == input_,
        "Lstm expected [N, " + std::to_string(input_) + ", L], got " +
            shape_to_string(x.shape()));
  const Index n = x.dim(0);
  const Index l = x.dim(2);

  // Rolling state only: two h/c double buffers for the whole call, no
  // per-step cache tensors.
  Tensor h_prev({n, hidden_});
  Tensor c_prev({n, hidden_});
  Tensor h_cur({n, hidden_});
  Tensor c_cur({n, hidden_});
  Tensor out({n, hidden_, l});
  Step s{w_ih_.value.data(), w_hh_.value.data(), bias_.value.data(), input_, hidden_,
         x.data(), l, out.data()};
  for (Index t = 0; t < l; ++t) {
    s.t = t;
    s.h_prev = h_prev.data();
    s.c_prev = c_prev.data();
    s.h_cur = h_cur.data();
    s.c_cur = c_cur.data();
    step(s, n);
    std::swap(h_prev, h_cur);
    std::swap(c_prev, c_cur);
  }
  return out;
}

Tensor Lstm::backward(const Tensor& grad_out) {
  check(cached_input_.rank() == 3, "Lstm backward called without matching forward");
  const Index n = cached_input_.dim(0);
  const Index l = cached_input_.dim(2);
  check(grad_out.rank() == 3 && grad_out.dim(0) == n && grad_out.dim(1) == hidden_ &&
            grad_out.dim(2) == l,
        "Lstm backward shape mismatch");

  Tensor grad_in(cached_input_.shape());
  Tensor dh_next({n, hidden_});
  Tensor dc_next({n, hidden_});

  const float* pwi = w_ih_.value.data();
  const float* pwh = w_hh_.value.data();
  float* pdwi = w_ih_.grad.data();
  float* pdwh = w_hh_.grad.data();
  float* pdb = bias_.grad.data();
  const float* px = cached_input_.data();
  float* pdx = grad_in.data();

  Tensor da({n, 4 * hidden_});  // pre-activation gradients, reused per step

  for (Index t = l - 1; t >= 0; --t) {
    const auto ts = static_cast<std::size_t>(t);
    const Tensor& gi = gate_i_[ts];
    const Tensor& gf = gate_f_[ts];
    const Tensor& gg = gate_g_[ts];
    const Tensor& go = gate_o_[ts];
    const Tensor& tc = cell_tanh_[ts];
    const Tensor* c_prev = t > 0 ? &cell_[ts - 1] : nullptr;
    const Tensor* h_prev = t > 0 ? &hidden_seq_[ts - 1] : nullptr;

    da.zero();
    Tensor dc_prev({n, hidden_});
    for (Index b = 0; b < n; ++b) {
      for (Index h = 0; h < hidden_; ++h) {
        const Index idx = b * hidden_ + h;
        const float dh = grad_out[(b * hidden_ + h) * l + t] + dh_next[idx];
        const float dco = dh * go[idx] * (1.0F - tc[idx] * tc[idx]) + dc_next[idx];
        const float cprev = c_prev != nullptr ? (*c_prev)[idx] : 0.0F;
        const float d_i = dco * gg[idx];
        const float d_f = dco * cprev;
        const float d_g = dco * gi[idx];
        const float d_o = dh * tc[idx];
        da[b * 4 * hidden_ + 0 * hidden_ + h] = d_i * gi[idx] * (1.0F - gi[idx]);
        da[b * 4 * hidden_ + 1 * hidden_ + h] = d_f * gf[idx] * (1.0F - gf[idx]);
        da[b * 4 * hidden_ + 2 * hidden_ + h] = d_g * (1.0F - gg[idx] * gg[idx]);
        da[b * 4 * hidden_ + 3 * hidden_ + h] = d_o * go[idx] * (1.0F - go[idx]);
        dc_prev[idx] = dco * gf[idx];
      }
    }

    // Accumulate parameter grads and propagate to x_t and h_{t-1}.
    dh_next.zero();
    for (Index b = 0; b < n; ++b) {
      const float* darow = da.data() + b * 4 * hidden_;
      for (Index r = 0; r < 4 * hidden_; ++r) {
        const float g = darow[r];
        if (g == 0.0F) continue;
        pdb[r] += g;
        float* dwi = pdwi + r * input_;
        const float* wi = pwi + r * input_;
        for (Index c = 0; c < input_; ++c) {
          dwi[c] += g * px[(b * input_ + c) * l + t];
          pdx[(b * input_ + c) * l + t] += g * wi[c];
        }
        float* dwh = pdwh + r * hidden_;
        const float* wh = pwh + r * hidden_;
        float* dhn = dh_next.data() + b * hidden_;
        if (h_prev != nullptr) {
          const float* hp = h_prev->data() + b * hidden_;
          for (Index k = 0; k < hidden_; ++k) {
            dwh[k] += g * hp[k];
            dhn[k] += g * wh[k];
          }
        }
      }
    }
    dc_next = std::move(dc_prev);
  }
  return grad_in;
}

Shape Lstm::output_shape(const Shape& in) const {
  check(in.size() == 2 && in[0] == input_, "Lstm output_shape mismatch");
  return {hidden_, in[1]};
}

long Lstm::flops(const Shape& in) const {
  check(in.size() == 2, "Lstm flops expects [C, L]");
  const Index l = in[1];
  return 2L * 4 * hidden_ * (input_ + hidden_) * l;
}

}  // namespace varade::nn
