#include "varade/nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "varade/nn/init.hpp"

namespace varade::nn {

// --------------------------------------------------------------- kernels ----

namespace {

// The forward kernels of Conv1d, Linear and ConvTranspose1d: each layer's
// forward() (training, which also caches the input for backward()) and
// forward_inference() run the same kernel, so the two are one computation.
// The backward kernels of Conv1d and Linear: backward() and
// backward_params() run the same kernel, the latter without the input
// gradient. The scalar loops all of these must match bit for bit live in
// test_nn_layers as the test-local references.
//
// Runtime dispatch: each kernel body is an always_inline function compiled
// twice — once plain (the portable table), once inside a target wrapper so it
// runs four doubles (eight floats) wide (the avx2+fma table) — and an explicit
// function-pointer table picks per host via __builtin_cpu_supports("avx2")
// and ("fma"), resolved once at first use.
//
// FMA: the Conv1d and Linear forward kernels accumulate float x float
// products in double. Such a product is exact in double (48 significand
// bits, and no float product can overflow or underflow a double), so a fused
// multiply-add there rounds exactly like multiply-then-add. Their avx2+fma
// copies use it (mul_add<true>: a per-lane __builtin_fma that compiles to
// vfmadd231pd), the portable copies multiply then add, and the parity tests
// in test_nn_layers run both tables against one scalar reference.
// Everything else here accumulates float products in float — the
// ConvTranspose1d scatter and both backward kernels — where a fused
// multiply-add would skip the product's rounding and change bits, so it is
// forbidden there: the build passes -ffp-contract=off, and their wrappers
// enable avx2 only.
//
// Row blocks: a packed weight vector load feeds several rows (Linear 3, 2,
// then 1; Conv1d 2, then 1, sharing one output step), so the kernels run
// several independent accumulator chains per load. The block widths follow
// from n alone and every row runs the same per-element operations, so a
// row's bits do not depend on n or on its place in the batch.
//
// This replaces the earlier target_clones multiversioning: ifunc resolvers
// run before sanitizer runtimes are initialised, so TSan builds had to
// disable the clones entirely (silently pinning TSan CI to the scalar
// kernel) and ASan builds depended on resolver ordering luck. A plain
// static-local table has neither problem — sanitized builds now exercise
// the same vectorised kernel as release builds, asserted by
// conv1d_kernel_name() in the test suite.
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target)
#define VARADE_CONV_MULTIARCH 1
#endif
#endif

/// always_inline: a kernel body must be inlined into its multiversioned
/// wrapper so the AVX2 copy compiles it with AVX2 (an out-of-line copy would
/// be baseline ISA).
#define VARADE_CONV_INLINE inline __attribute__((always_inline))

/// Packed Conv1d/Linear kernels work on GCC/Clang vector types, so one body
/// compiles to AVX2 ymm ops in the avx2 wrapper and to SSE2 pairs in the
/// portable one (the autovectoriser left the lane loops scalar). Vectors are
/// only ever locals, never passed across a call, so the two copies share no
/// vector ABI.
using VecD = double __attribute__((vector_size(32)));  // 4 double lanes
using VecF = float __attribute__((vector_size(16)));   // the same 4 lanes as float
using VecF8 = float __attribute__((vector_size(32)));  // 8 float lanes (backward)

/// Output lanes per block in the packed kernels: four double vectors.
/// Packed weight rows are zero-padded to a multiple of this, so every block
/// runs full width and the padded lanes are dropped on store.
constexpr Index kVecs = 4;
constexpr Index kLanes = 4 * kVecs;

Index round_up_lanes(Index n) { return (n + kLanes - 1) / kLanes * kLanes; }

/// Packs a row-major [out][rows] weight matrix and its bias into `dst` as
/// [rows][out_pad] doubles plus one bias row, with the padded lanes zero.
/// Widening float to double is exact. forward_inference packs into a
/// per-thread buffer on every call, never caching across calls: weights stay
/// mutable through parameters(), and a const model may be read from several
/// threads at once, so a member cache would go stale or race. Callers that
/// own a fitted model pack once with pack() and call forward_packed().
void pack_weights(const float* w, const float* bias, Index out, Index rows, PackedWeights& dst) {
  const Index out_pad = round_up_lanes(out);
  dst.out_pad = out_pad;
  dst.values.assign(static_cast<std::size_t>((rows + 1) * out_pad), 0.0);
  double* buf = dst.values.data();
  for (Index r = 0; r < rows; ++r)
    for (Index o = 0; o < out; ++o) buf[r * out_pad + o] = w[o * rows + r];
  for (Index o = 0; o < out; ++o) buf[rows * out_pad + o] = bias[o];
}

/// acc += w * x in every lane. With Fma each lane is one fused multiply-add,
/// which rounds exactly like the unfused pair: w and x are floats widened to
/// double, so their product is exact. Only the avx2+fma wrappers instantiate
/// Fma = true, where the four __builtin_fma calls compile to one
/// vfmadd231pd; the portable copy keeps the two operations (a per-lane
/// __builtin_fma without the fma target would be a libm call).
template <bool Fma>
VARADE_CONV_INLINE void mul_add(VecD& acc, const VecD& w, const VecD& x) {
  if constexpr (Fma)
    acc = VecD{__builtin_fma(w[0], x[0], acc[0]), __builtin_fma(w[1], x[1], acc[1]),
               __builtin_fma(w[2], x[2], acc[2]), __builtin_fma(w[3], x[3], acc[3])};
  else
    acc += w * x;
}

/// The operands of one packed Conv1d forward call.
struct Conv1dFwd {
  const float* x;   // [n, in_ch, l_in]
  const double* w;  // packed: [in_ch * kernel][co_pad] doubles, then the bias row
  float* y;         // [n, out_ch, l_out]
  Index n, in_ch, out_ch, co_pad, l_in, l_out, kernel, stride, padding;
};

/// Conv1d for batch rows [b0, b0 + R) over channel-major packed weights:
/// rows [ci][k] of `co_pad` doubles, then one bias row. The output channels
/// of one (row, step) fill the vector lanes, so every geometry vectorises,
/// including the l_out in {2, 1} of VARADE's deep and streamed layers. Each
/// lane computes the scalar reference's element: the bias, then for
/// ascending ci one float addition of float(0.0 + w[k_lo]*x + ... ) over the
/// in-bounds taps in ascending k — taps in the zero padding are skipped, and
/// the float addition happens even when every tap was skipped. The R rows
/// share the output step, hence the tap range, so each weight vector load
/// feeds R rows' accumulators without changing any element's order.
template <bool Fma, Index R>
VARADE_CONV_INLINE void conv1d_rows(const Conv1dFwd& a, Index b0) {
  const Index co_pad = a.co_pad;
  const Index l_in = a.l_in;
  const double* bias = a.w + a.in_ch * a.kernel * co_pad;
  const float* xb[R];
  float* yb[R];
  for (Index r = 0; r < R; ++r) {
    xb[r] = a.x + (b0 + r) * a.in_ch * l_in;
    yb[r] = a.y + (b0 + r) * a.out_ch * a.l_out;
  }
  for (Index t = 0; t < a.l_out; ++t) {
    const Index start = t * a.stride - a.padding;
    const Index k_lo = std::max<Index>(0, -start);
    const Index k_hi = std::min(a.kernel, l_in - start);
    for (Index c0 = 0; c0 < co_pad; c0 += kLanes) {
      VecF yv[R][kVecs];
      for (Index v = 0; v < kVecs; ++v) {
        VecD bv = {};
        std::memcpy(&bv, bias + c0 + 4 * v, sizeof bv);
        const VecF bf = __builtin_convertvector(bv, VecF);  // exact: the bias is a float
#pragma GCC unroll 4
        for (Index r = 0; r < R; ++r) yv[r][v] = bf;
      }
      for (Index ci = 0; ci < a.in_ch; ++ci) {
        const double* wc = a.w + ci * a.kernel * co_pad + c0;
        VecD acc[R][kVecs] = {};
        for (Index k = k_lo; k < k_hi; ++k) {
          VecD xv[R];
#pragma GCC unroll 4
          for (Index r = 0; r < R; ++r) {
            const double xs = xb[r][ci * l_in + start + k];
            xv[r] = VecD{xs, xs, xs, xs};
          }
          for (Index v = 0; v < kVecs; ++v) {
            VecD wv = {};
            std::memcpy(&wv, wc + k * co_pad + 4 * v, sizeof wv);
#pragma GCC unroll 4
            for (Index r = 0; r < R; ++r) mul_add<Fma>(acc[r][v], wv, xv[r]);
          }
        }
#pragma GCC unroll 4
        for (Index r = 0; r < R; ++r)
          for (Index v = 0; v < kVecs; ++v) yv[r][v] += __builtin_convertvector(acc[r][v], VecF);
      }
      const Index lanes = std::min(kLanes, a.out_ch - c0);
      for (Index r = 0; r < R; ++r) {
        float ys[kLanes] = {};
        std::memcpy(ys, yv[r], sizeof ys);
        for (Index j = 0; j < lanes; ++j) yb[r][(c0 + j) * a.l_out + t] = ys[j];
      }
    }
  }
}

/// Conv1d over all n rows in blocks of 2 rows, then 1 for an odd last row.
template <bool Fma>
VARADE_CONV_INLINE void conv1d_packed_impl(const Conv1dFwd& a) {
  Index b = 0;
  for (; b + 2 <= a.n; b += 2) conv1d_rows<Fma, 2>(a, b);
  if (b < a.n) conv1d_rows<Fma, 1>(a, b);
}

/// Linear rows [i0, i0 + R) over packed weights `wp`: rows [in] of `out_pad`
/// doubles, then one bias row. The outputs of one row fill the vector lanes;
/// each lane is a double accumulator starting at the bias, plus the products
/// in ascending input order, rounded to float once. Each weight vector load
/// feeds R rows, so R * kVecs independent chains hide the multiply-add
/// latency without changing any chain's order. The row loops are unrolled by
/// pragma: left rolled (GCC 12), they keep the accumulators in memory.
template <bool Fma, Index R>
VARADE_CONV_INLINE void linear_rows(const float* px, const double* wp, float* py, Index i0,
                                    Index in, Index out, Index out_pad) {
  const double* bias = wp + in * out_pad;
  const float* xr[R];
  float* yr[R];
  for (Index r = 0; r < R; ++r) {
    xr[r] = px + (i0 + r) * in;
    yr[r] = py + (i0 + r) * out;
  }
  for (Index o0 = 0; o0 < out_pad; o0 += kLanes) {
    VecD acc[R][kVecs];
    for (Index v = 0; v < kVecs; ++v) {
      VecD bv = {};
      std::memcpy(&bv, bias + o0 + 4 * v, sizeof bv);
#pragma GCC unroll 4
      for (Index r = 0; r < R; ++r) acc[r][v] = bv;
    }
    for (Index f = 0; f < in; ++f) {
      VecD xv[R];
#pragma GCC unroll 4
      for (Index r = 0; r < R; ++r) {
        const double xs = xr[r][f];
        xv[r] = VecD{xs, xs, xs, xs};
      }
      const double* wf = wp + f * out_pad + o0;
      for (Index v = 0; v < kVecs; ++v) {
        VecD wv = {};
        std::memcpy(&wv, wf + 4 * v, sizeof wv);
#pragma GCC unroll 4
        for (Index r = 0; r < R; ++r) mul_add<Fma>(acc[r][v], wv, xv[r]);
      }
    }
    const Index lanes = std::min(kLanes, out - o0);
    for (Index r = 0; r < R; ++r) {
      float ys[kLanes] = {};
      for (Index v = 0; v < kVecs; ++v) {
        const VecF yv = __builtin_convertvector(acc[r][v], VecF);
        std::memcpy(ys + 4 * v, &yv, sizeof yv);
      }
      for (Index j = 0; j < lanes; ++j) yr[r][o0 + j] = ys[j];
    }
  }
}

/// Linear over all n rows in blocks of 3 rows, then 2, then 1 (as Lstm's
/// step picks its block widths: from n alone). In the avx2+fma copy a block
/// of 3 keeps 12 double accumulators, the 3 rows' broadcast inputs and one
/// weight vector in the sixteen ymm registers.
template <bool Fma>
VARADE_CONV_INLINE void linear_packed_impl(const float* px, const double* wp, float* py,
                                           Index n, Index in, Index out, Index out_pad) {
  Index i = 0;
  for (; i + 3 <= n; i += 3) linear_rows<Fma, 3>(px, wp, py, i, in, out, out_pad);
  for (; i + 2 <= n; i += 2) linear_rows<Fma, 2>(px, wp, py, i, in, out, out_pad);
  for (; i < n; ++i) linear_rows<Fma, 1>(px, wp, py, i, in, out, out_pad);
}

/// Non-overlapping ConvTranspose1d scatter row (stride >= kernel) for
/// compile-time kernel size K and stride S — the AE decoder's k2/s2
/// upsampling layers. Blocks of input steps write disjoint output ranges,
/// so a dense block (all lanes nonzero) can run k-major without branches and
/// vectorise; any block containing a zero falls back to the per-element
/// skip-zero loop so convt1d_row's observable semantics (no += of 0*w, which
/// could flip a -0.0 or materialise a NaN from a non-finite weight) are
/// preserved exactly. The zero skip matters here: these layers sit behind a
/// ReLU, so exact zeros are common in the decoder input.
template <Index K, Index S>
VARADE_CONV_INLINE void convt1d_row_ks(const float* xc, const float* wk, float* yc,
                                       Index l_in) {
  static_assert(S >= K, "blocked scatter requires non-overlapping outputs");
  constexpr Index kBlock = 8;
  Index t0 = 0;
  for (; t0 + kBlock <= l_in; t0 += kBlock) {
    bool dense = true;
    for (Index j = 0; j < kBlock; ++j) dense &= (xc[t0 + j] != 0.0F);
    if (dense) {
      // Every (t, k) pair hits a distinct output element, so the k-major
      // order below produces bit-identical results to the t-major reference.
      for (Index k = 0; k < K; ++k) {
        const float wv = wk[k];
        for (Index j = 0; j < kBlock; ++j) yc[(t0 + j) * S + k] += xc[t0 + j] * wv;
      }
      continue;
    }
    for (Index j = 0; j < kBlock; ++j) {
      const float xv = xc[t0 + j];
      if (xv == 0.0F) continue;
      float* yp = yc + (t0 + j) * S;
      for (Index k = 0; k < K; ++k) yp[k] += xv * wk[k];
    }
  }
  for (Index t = t0; t < l_in; ++t) {
    const float xv = xc[t];
    if (xv == 0.0F) continue;
    float* yp = yc + t * S;
    for (Index k = 0; k < K; ++k) yp[k] += xv * wk[k];
  }
}

/// Generic scatter row for any geometry, overlapping (stride < kernel) ones
/// included: input steps in ascending t, exact zeros skipped, taps in
/// ascending k, so an output element that several (t, k) pairs reach sums
/// them in ascending t.
VARADE_CONV_INLINE void convt1d_row(const float* xc, const float* wk, float* yc, Index l_in,
                                    Index kernel, Index stride) {
  for (Index t = 0; t < l_in; ++t) {
    const float xv = xc[t];
    if (xv == 0.0F) continue;
    float* yp = yc + t * stride;
    for (Index k = 0; k < kernel; ++k) yp[k] += xv * wk[k];
  }
}

/// ConvTranspose1d scatter over bias-filled output rows, any geometry: ci
/// outer, so each output element accumulates its per-input-channel
/// contributions in ascending-ci order. Only k2/s2 (the AE decoder's
/// upsampling) takes the blocked row; every other geometry runs
/// convt1d_row.
VARADE_CONV_INLINE void convt1d_scatter_impl(const float* px, const float* pw, float* py,
                                             Index n, Index in_ch, Index out_ch, Index l_in,
                                             Index l_out, Index kernel, Index stride) {
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch * l_in;
    float* yb = py + b * out_ch * l_out;
    for (Index ci = 0; ci < in_ch; ++ci) {
      const float* xc = xb + ci * l_in;
      for (Index co = 0; co < out_ch; ++co) {
        const float* wk = pw + (ci * out_ch + co) * kernel;
        float* yc = yb + co * l_out;
        if (kernel == 2 && stride == 2)
          convt1d_row_ks<2, 2>(xc, wk, yc, l_in);
        else
          convt1d_row(xc, wk, yc, l_in, kernel, stride);
      }
    }
  }
}

/// dst[j] += g * src[j] for j in [0, len), eight lanes at a time: per
/// element a float product, rounded, then a float addition — the scalar
/// statement's two roundings, never fused.
VARADE_CONV_INLINE void add_scaled(float* dst, const float* src, float g, Index len) {
  const VecF8 gv = {g, g, g, g, g, g, g, g};
  Index j = 0;
  for (; j + 8 <= len; j += 8) {
    VecF8 d = {};
    VecF8 s = {};
    std::memcpy(&d, dst + j, sizeof d);
    std::memcpy(&s, src + j, sizeof s);
    d += gv * s;
    std::memcpy(dst + j, &d, sizeof d);
  }
  for (; j < len; ++j) dst[j] += g * src[j];
}

/// The operands of one Conv1d backward call. dx == nullptr asks for the
/// parameter gradients only.
struct Conv1dGrad {
  const float* x;  // [n, in_ch, l_in], the cached input
  const float* g;  // [n, out_ch, l_out]
  const float* w;  // [out_ch, in_ch, kernel]
  float* dw;       // [out_ch, in_ch, kernel], accumulated into
  float* db;       // [out_ch], accumulated into
  float* dx;       // [n, in_ch, l_in], zero on entry; or null
  Index n, in_ch, out_ch, l_in, l_out, kernel, stride, padding;
  float* scratch;  // conv1d_backward_scratch() floats
};

/// Input channels padded to whole eight-float vectors in the transposed
/// buffers; the padded lanes hold zeros and are never stored back.
Index round_up_ci(Index in_ch) { return (in_ch + 7) / 8 * 8; }

Index conv1d_backward_scratch(Index in_ch, Index out_ch, Index kernel, Index l_in) {
  return 2 * round_up_ci(in_ch) * (out_ch * kernel + l_in);
}

/// Conv1d backward with the input channels in the vector lanes. The weights,
/// a working copy of their gradient and each batch row's input (and input
/// gradient) are transposed so that ci is the contiguous axis: wt and dwt
/// [co][k][ci], xt and dxt [pos][ci]. The loops run b -> co -> (bias over t)
/// -> t -> in-bounds k -> ci lanes, computing dW += g*x and dX += g*w with an
/// exact-zero g skipped (g is the same in every lane, so the skip stays one
/// scalar branch). That keeps the scalar reference's order for every element:
/// dW[co][ci][k] sums over (b, t) ascending, dX[b][ci][pos] over (co, t, k)
/// ascending, db[co] over (b, t) ascending.
VARADE_CONV_INLINE void conv1d_backward_impl(const Conv1dGrad& a) {
  const Index in_ch = a.in_ch;
  const Index ci_pad = round_up_ci(in_ch);
  const Index kernel = a.kernel;
  const Index taps = a.out_ch * kernel;
  float* dwt = a.scratch;
  float* wt = dwt + taps * ci_pad;
  float* xt = wt + taps * ci_pad;
  float* dxt = xt + a.l_in * ci_pad;
  std::fill(a.scratch, a.scratch + conv1d_backward_scratch(in_ch, a.out_ch, kernel, a.l_in),
            0.0F);
  for (Index co = 0; co < a.out_ch; ++co)
    for (Index ci = 0; ci < in_ch; ++ci)
      for (Index k = 0; k < kernel; ++k) {
        const Index src = (co * in_ch + ci) * kernel + k;
        const Index dst = (co * kernel + k) * ci_pad + ci;
        dwt[dst] = a.dw[src];
        if (a.dx != nullptr) wt[dst] = a.w[src];
      }
  for (Index b = 0; b < a.n; ++b) {
    const float* xb = a.x + b * in_ch * a.l_in;
    for (Index ci = 0; ci < in_ch; ++ci)
      for (Index pos = 0; pos < a.l_in; ++pos) xt[pos * ci_pad + ci] = xb[ci * a.l_in + pos];
    if (a.dx != nullptr) std::fill(dxt, dxt + a.l_in * ci_pad, 0.0F);
    for (Index co = 0; co < a.out_ch; ++co) {
      const float* gc = a.g + (b * a.out_ch + co) * a.l_out;
      for (Index t = 0; t < a.l_out; ++t) a.db[co] += gc[t];
      for (Index t = 0; t < a.l_out; ++t) {
        const float g = gc[t];
        if (g == 0.0F) continue;
        const Index start = t * a.stride - a.padding;
        const Index k_lo = std::max<Index>(0, -start);
        const Index k_hi = std::min(kernel, a.l_in - start);
        for (Index k = k_lo; k < k_hi; ++k) {
          const Index row = (co * kernel + k) * ci_pad;
          const Index pos = (start + k) * ci_pad;
          add_scaled(dwt + row, xt + pos, g, ci_pad);
          if (a.dx != nullptr) add_scaled(dxt + pos, wt + row, g, ci_pad);
        }
      }
    }
    if (a.dx != nullptr) {
      float* dxb = a.dx + b * in_ch * a.l_in;
      for (Index ci = 0; ci < in_ch; ++ci)
        for (Index pos = 0; pos < a.l_in; ++pos) dxb[ci * a.l_in + pos] = dxt[pos * ci_pad + ci];
    }
  }
  for (Index co = 0; co < a.out_ch; ++co)
    for (Index ci = 0; ci < in_ch; ++ci)
      for (Index k = 0; k < kernel; ++k)
        a.dw[(co * in_ch + ci) * kernel + k] = dwt[(co * kernel + k) * ci_pad + ci];
}

/// The operands of one Linear backward call; dx == nullptr asks for the
/// parameter gradients only.
struct LinearGrad {
  const float* x;  // [n, in], the cached input
  const float* g;  // [n, out]
  const float* w;  // [out, in]
  float* dw;       // [out, in], accumulated into
  float* db;       // [out], accumulated into
  float* dx;       // [n, in], zero on entry; or null
  Index n, in, out;
};

/// Linear backward with the inputs in the vector lanes. The layouts already
/// have `in` contiguous, so the loops run i -> o (exact-zero g skipped) -> j
/// lanes with no transposes: dW[o][j] sums over i ascending, dX[i][j] over o
/// ascending, db[o] over i ascending, as the scalar reference does.
VARADE_CONV_INLINE void linear_backward_impl(const LinearGrad& a) {
  for (Index i = 0; i < a.n; ++i) {
    const float* grow = a.g + i * a.out;
    const float* xrow = a.x + i * a.in;
    for (Index o = 0; o < a.out; ++o) {
      const float g = grow[o];
      if (g == 0.0F) continue;
      a.db[o] += g;
      add_scaled(a.dw + o * a.in, xrow, g, a.in);
      if (a.dx != nullptr) add_scaled(a.dx + i * a.in, a.w + o * a.in, g, a.in);
    }
  }
}

// ------------------------------------------------ kernel dispatch table ----

using Conv1dFn = void (*)(const Conv1dFwd&);
using LinearFn = void (*)(const float*, const double*, float*, Index, Index, Index, Index);
using ConvT1dScatterFn = void (*)(const float*, const float*, float*, Index, Index, Index,
                                  Index, Index, Index, Index);
using Conv1dBackwardFn = void (*)(const Conv1dGrad&);
using LinearBackwardFn = void (*)(const LinearGrad&);

struct KernelTable {
  Conv1dFn conv1d;
  LinearFn linear;
  ConvT1dScatterFn convt1d_scatter;
  Conv1dBackwardFn conv1d_backward;
  LinearBackwardFn linear_backward;
  const char* name;
};

void conv1d_portable(const Conv1dFwd& a) { conv1d_packed_impl<false>(a); }

void linear_portable(const float* px, const double* wp, float* py, Index n, Index in,
                     Index out, Index out_pad) {
  linear_packed_impl<false>(px, wp, py, n, in, out, out_pad);
}

void convt1d_scatter_portable(const float* px, const float* pw, float* py, Index n,
                              Index in_ch, Index out_ch, Index l_in, Index l_out, Index kernel,
                              Index stride) {
  convt1d_scatter_impl(px, pw, py, n, in_ch, out_ch, l_in, l_out, kernel, stride);
}

void conv1d_backward_portable(const Conv1dGrad& a) { conv1d_backward_impl(a); }

void linear_backward_portable(const LinearGrad& a) { linear_backward_impl(a); }

constexpr KernelTable kPortable{conv1d_portable,          linear_portable,
                                convt1d_scatter_portable, conv1d_backward_portable,
                                linear_backward_portable, "portable"};

#ifdef VARADE_CONV_MULTIARCH
// The always_inline impl bodies are compiled again inside these wrappers, so
// the target attribute applies to every loop in them. Only the two
// double-accumulating forward kernels enable fma; the float-accumulating
// ones are compiled for plain avx2, so no fused operation can reach them.
__attribute__((target("avx2,fma"))) void conv1d_avx2_fma(const Conv1dFwd& a) {
  conv1d_packed_impl<true>(a);
}

__attribute__((target("avx2,fma"))) void linear_avx2_fma(const float* px, const double* wp,
                                                         float* py, Index n, Index in,
                                                         Index out, Index out_pad) {
  linear_packed_impl<true>(px, wp, py, n, in, out, out_pad);
}

__attribute__((target("avx2"))) void convt1d_scatter_avx2(const float* px, const float* pw,
                                                          float* py, Index n, Index in_ch,
                                                          Index out_ch, Index l_in,
                                                          Index l_out, Index kernel,
                                                          Index stride) {
  convt1d_scatter_impl(px, pw, py, n, in_ch, out_ch, l_in, l_out, kernel, stride);
}

__attribute__((target("avx2"))) void conv1d_backward_avx2(const Conv1dGrad& a) {
  conv1d_backward_impl(a);
}

__attribute__((target("avx2"))) void linear_backward_avx2(const LinearGrad& a) {
  linear_backward_impl(a);
}

constexpr KernelTable kAvx2Fma{conv1d_avx2_fma,      linear_avx2_fma,      convt1d_scatter_avx2,
                               conv1d_backward_avx2, linear_backward_avx2, "avx2+fma"};
#endif

/// The tables this host can run: the portable one, then avx2+fma where the
/// CPU has both.
std::vector<const KernelTable*> runnable_tables() {
  std::vector<const KernelTable*> tables{&kPortable};
#ifdef VARADE_CONV_MULTIARCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    tables.push_back(&kAvx2Fma);
#endif
  return tables;
}

/// The selected kernel set: the last runnable table. Resolution runs once
/// (static local, thread-safe under C++ magic statics) on first use — well
/// after any sanitizer runtime is up, unlike an ifunc resolver.
const KernelTable& kernels() {
  static const KernelTable* const table = runnable_tables().back();
  return *table;
}

/// forward_packed() refuses, in O(1), a block whose layout does not match
/// the layer's `rows` x `out`: read as this layer's block, it would run past
/// its end or mix another layer's weights into the outputs.
void check_packed(const PackedWeights& w, Index rows, Index out, const char* layer) {
  const Index out_pad = round_up_lanes(out);
  if (w.out_pad != out_pad || w.values.size() != static_cast<std::size_t>((rows + 1) * out_pad))
    fail(layer, "::forward_packed: weights packed for another layer (", w.values.size(),
         " values, out_pad ", w.out_pad, "; this layer needs ", (rows + 1) * out_pad,
         " values, out_pad ", out_pad, ")");
}

void linear_forward(const KernelTable& k, const Linear& layer, const PackedWeights& w,
                    const float* x, Index n, float* y) {
  check_packed(w, layer.in_features(), layer.out_features(), "Linear");
  k.linear(x, w.values.data(), y, n, layer.in_features(), layer.out_features(), w.out_pad);
}

void conv1d_forward(const KernelTable& k, const Conv1d& conv, const PackedWeights& w,
                    const float* x, Index n, Index l_in, float* y) {
  check_packed(w, conv.in_channels() * conv.kernel_size(), conv.out_channels(), "Conv1d");
  k.conv1d({x, w.values.data(), y, n, conv.in_channels(), conv.out_channels(), w.out_pad, l_in,
            conv.out_length(l_in), conv.kernel_size(), conv.stride(), conv.padding()});
}

}  // namespace

const char* conv1d_kernel_name() { return kernels().name; }

namespace detail {

std::vector<std::string> kernel_tables() {
  std::vector<std::string> names;
  for (const KernelTable* table : runnable_tables()) names.emplace_back(table->name);
  return names;
}

void linear_forward_packed(Index table, const Linear& layer, const PackedWeights& w,
                           const float* x, Index n, float* y) {
  linear_forward(*runnable_tables().at(static_cast<std::size_t>(table)), layer, w, x, n, y);
}

void conv1d_forward_packed(Index table, const Conv1d& conv, const PackedWeights& w,
                           const float* x, Index n, Index l_in, float* y) {
  conv1d_forward(*runnable_tables().at(static_cast<std::size_t>(table)), conv, w, x, n, l_in, y);
}

}  // namespace detail

// ---------------------------------------------------------------- Linear ----

Linear::Linear(Index in_features, Index out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("weight", he_normal({out_features, in_features}, in_features, rng)),
      bias_("bias", Tensor({out_features})) {
  check(in_features > 0 && out_features > 0, "Linear dimensions must be positive");
}

Tensor Linear::forward(const Tensor& x) {
  cached_input_ = x;
  return forward_inference(x);
}

Tensor Linear::forward_inference(const Tensor& x) {
  check(x.rank() == 2 && x.dim(1) == in_,
        "Linear expected [N, " + std::to_string(in_) + "], got " + shape_to_string(x.shape()));
  thread_local PackedWeights packed;
  pack_weights(weight_.value.data(), bias_.value.data(), out_, in_, packed);
  Tensor y({x.dim(0), out_});
  forward_packed(packed, x.data(), x.dim(0), y.data());
  return y;
}

PackedWeights Linear::pack() const {
  PackedWeights packed;
  pack_weights(weight_.value.data(), bias_.value.data(), out_, in_, packed);
  return packed;
}

void Linear::forward_packed(const PackedWeights& w, const float* x, Index n, float* y) const {
  linear_forward(kernels(), *this, w, x, n, y);
}

Tensor Linear::backward(const Tensor& grad_out) { return run_backward(grad_out, true); }

void Linear::backward_params(const Tensor& grad_out) { run_backward(grad_out, false); }

Tensor Linear::run_backward(const Tensor& grad_out, bool input_grad) {
  check(grad_out.rank() == 2 && grad_out.dim(1) == out_, "Linear backward shape mismatch");
  const Index n = grad_out.dim(0);
  check(cached_input_.rank() == 2 && cached_input_.dim(0) == n,
        "Linear backward called without matching forward");
  // dW[o,j] += sum_i g[i,o] * x[i,j];  db[o] += sum_i g[i,o];  dx = g W
  Tensor grad_in = input_grad ? Tensor({n, in_}) : Tensor();
  kernels().linear_backward({cached_input_.data(), grad_out.data(), weight_.value.data(),
                             weight_.grad.data(), bias_.grad.data(),
                             input_grad ? grad_in.data() : nullptr, n, in_, out_});
  return grad_in;
}

Shape Linear::output_shape(const Shape& in) const {
  check(in.size() == 1 && in[0] == in_, "Linear output_shape mismatch");
  return {out_};
}

long Linear::flops(const Shape&) const { return 2L * in_ * out_; }

// ------------------------------------------------------------------ ReLU ----

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  return forward_inference(x);
}

Tensor ReLU::forward_inference(const Tensor& x) {
  // Same elementwise max as the map() path, minus the std::function call
  // per element — this runs once per residual-block layer on the serving
  // hot path and autovectorises as written.
  Tensor y = x;
  float* p = y.data();
  const Index n = y.numel();
  for (Index i = 0; i < n; ++i) p[i] = p[i] > 0.0F ? p[i] : 0.0F;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  check(grad_out.same_shape(cached_input_), "ReLU backward shape mismatch");
  Tensor g = grad_out;
  const Index n = g.numel();
  for (Index i = 0; i < n; ++i)
    if (cached_input_[i] <= 0.0F) g[i] = 0.0F;
  return g;
}

// ------------------------------------------------------------------ Tanh ----

Tensor Tanh::forward(const Tensor& x) {
  cached_output_ = forward_inference(x);
  return cached_output_;
}

Tensor Tanh::forward_inference(const Tensor& x) {
  return x.map([](float v) { return std::tanh(v); });
}

Tensor Tanh::backward(const Tensor& grad_out) {
  check(grad_out.same_shape(cached_output_), "Tanh backward shape mismatch");
  Tensor g = grad_out;
  const Index n = g.numel();
  for (Index i = 0; i < n; ++i) g[i] *= 1.0F - cached_output_[i] * cached_output_[i];
  return g;
}

// ---------------------------------------------------------------- Conv1d ----

Conv1d::Conv1d(Index in_channels, Index out_channels, Index kernel_size, Index stride,
               Index padding, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_("weight",
              he_normal({out_channels, in_channels, kernel_size}, in_channels * kernel_size, rng)),
      bias_("bias", Tensor({out_channels})) {
  check(in_channels > 0 && out_channels > 0, "Conv1d channel counts must be positive");
  check(kernel_size > 0 && stride > 0 && padding >= 0, "Conv1d geometry invalid");
}

Index Conv1d::out_length(Index l) const {
  const Index padded = l + 2 * padding_;
  check(padded >= kernel_, "Conv1d input length " + std::to_string(l) + " shorter than kernel");
  return (padded - kernel_) / stride_ + 1;
}

Tensor Conv1d::forward(const Tensor& x) {
  cached_input_ = x;
  return forward_inference(x);
}

Tensor Conv1d::forward_inference(const Tensor& x) {
  check(x.rank() == 3 && x.dim(1) == in_ch_,
        "Conv1d expected [N, " + std::to_string(in_ch_) + ", L], got " +
            shape_to_string(x.shape()));
  // [out_ch][in_ch][kernel] is a row-major [out_ch][in_ch * kernel] matrix,
  // so packing it gives one row per (ci, k) tap.
  thread_local PackedWeights packed;
  pack_weights(weight_.value.data(), bias_.value.data(), out_ch_, in_ch_ * kernel_, packed);
  Tensor y({x.dim(0), out_ch_, out_length(x.dim(2))});
  forward_packed(packed, x.data(), x.dim(0), x.dim(2), y.data());
  return y;
}

PackedWeights Conv1d::pack() const {
  PackedWeights packed;
  pack_weights(weight_.value.data(), bias_.value.data(), out_ch_, in_ch_ * kernel_, packed);
  return packed;
}

void Conv1d::forward_packed(const PackedWeights& w, const float* x, Index n, Index l_in,
                            float* y) const {
  conv1d_forward(kernels(), *this, w, x, n, l_in, y);
}

Tensor Conv1d::backward(const Tensor& grad_out) { return run_backward(grad_out, true); }

void Conv1d::backward_params(const Tensor& grad_out) { run_backward(grad_out, false); }

Tensor Conv1d::run_backward(const Tensor& grad_out, bool input_grad) {
  check(cached_input_.rank() == 3, "Conv1d backward called without matching forward");
  const Index n = cached_input_.dim(0);
  const Index l_in = cached_input_.dim(2);
  const Index l_out = out_length(l_in);
  check(grad_out.rank() == 3 && grad_out.dim(0) == n && grad_out.dim(1) == out_ch_ &&
            grad_out.dim(2) == l_out,
        "Conv1d backward shape mismatch");
  Tensor grad_in = input_grad ? Tensor(cached_input_.shape()) : Tensor();
  thread_local std::vector<float> scratch;
  scratch.resize(static_cast<std::size_t>(conv1d_backward_scratch(in_ch_, out_ch_, kernel_, l_in)));
  kernels().conv1d_backward({cached_input_.data(), grad_out.data(), weight_.value.data(),
                             weight_.grad.data(), bias_.grad.data(),
                             input_grad ? grad_in.data() : nullptr, n, in_ch_, out_ch_, l_in,
                             l_out, kernel_, stride_, padding_, scratch.data()});
  return grad_in;
}

Shape Conv1d::output_shape(const Shape& in) const {
  check(in.size() == 2 && in[0] == in_ch_, "Conv1d output_shape mismatch");
  return {out_ch_, out_length(in[1])};
}

long Conv1d::flops(const Shape& in) const {
  check(in.size() == 2, "Conv1d flops expects [C, L]");
  return 2L * out_ch_ * in_ch_ * kernel_ * out_length(in[1]);
}

// ------------------------------------------------------- ConvTranspose1d ----

ConvTranspose1d::ConvTranspose1d(Index in_channels, Index out_channels, Index kernel_size,
                                 Index stride, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel_size),
      stride_(stride),
      weight_("weight",
              he_normal({in_channels, out_channels, kernel_size}, in_channels * kernel_size, rng)),
      bias_("bias", Tensor({out_channels})) {
  check(in_channels > 0 && out_channels > 0 && kernel_size > 0 && stride > 0,
        "ConvTranspose1d geometry invalid");
}

Tensor ConvTranspose1d::forward(const Tensor& x) {
  cached_input_ = x;
  return forward_inference(x);
}

Tensor ConvTranspose1d::forward_inference(const Tensor& x) {
  // Bias-filled rows, then the scatter through the kernel dispatch table,
  // for every geometry (overlapping ones run the generic row).
  check(x.rank() == 3 && x.dim(1) == in_ch_, "ConvTranspose1d expected [N, C, L]");
  const Index n = x.dim(0);
  const Index l_in = x.dim(2);
  const Index l_out = (l_in - 1) * stride_ + kernel_;
  Tensor y({n, out_ch_, l_out});
  const float* pb = bias_.value.data();
  float* py = y.data();
  for (Index b = 0; b < n; ++b) {
    float* yb = py + b * out_ch_ * l_out;
    for (Index co = 0; co < out_ch_; ++co) {
      float* yc = yb + co * l_out;
      for (Index t = 0; t < l_out; ++t) yc[t] = pb[co];
    }
  }
  kernels().convt1d_scatter(x.data(), weight_.value.data(), py, n, in_ch_, out_ch_, l_in,
                            l_out, kernel_, stride_);
  return y;
}

Tensor ConvTranspose1d::backward(const Tensor& grad_out) {
  check(cached_input_.rank() == 3, "ConvTranspose1d backward called without matching forward");
  const Index n = cached_input_.dim(0);
  const Index l_in = cached_input_.dim(2);
  const Index l_out = (l_in - 1) * stride_ + kernel_;
  check(grad_out.rank() == 3 && grad_out.dim(0) == n && grad_out.dim(1) == out_ch_ &&
            grad_out.dim(2) == l_out,
        "ConvTranspose1d backward shape mismatch");
  Tensor grad_in(cached_input_.shape());
  const float* px = cached_input_.data();
  const float* pg = grad_out.data();
  const float* pw = weight_.value.data();
  float* pdw = weight_.grad.data();
  float* pdb = bias_.grad.data();
  float* pdx = grad_in.data();
  for (Index b = 0; b < n; ++b) {
    const float* xb = px + b * in_ch_ * l_in;
    const float* gb = pg + b * out_ch_ * l_out;
    float* dxb = pdx + b * in_ch_ * l_in;
    for (Index co = 0; co < out_ch_; ++co) {
      const float* gc = gb + co * l_out;
      for (Index t = 0; t < l_out; ++t) pdb[co] += gc[t];
    }
    for (Index ci = 0; ci < in_ch_; ++ci) {
      const float* xc = xb + ci * l_in;
      float* dxc = dxb + ci * l_in;
      for (Index co = 0; co < out_ch_; ++co) {
        const float* gc = gb + co * l_out;
        const float* wk = pw + (ci * out_ch_ + co) * kernel_;
        float* dwk = pdw + (ci * out_ch_ + co) * kernel_;
        for (Index t = 0; t < l_in; ++t) {
          const Index start = t * stride_;
          float dx_acc = 0.0F;
          for (Index k = 0; k < kernel_; ++k) {
            dx_acc += gc[start + k] * wk[k];
            dwk[k] += gc[start + k] * xc[t];
          }
          dxc[t] += dx_acc;
        }
      }
    }
  }
  return grad_in;
}

Shape ConvTranspose1d::output_shape(const Shape& in) const {
  check(in.size() == 2 && in[0] == in_ch_, "ConvTranspose1d output_shape mismatch");
  return {out_ch_, (in[1] - 1) * stride_ + kernel_};
}

long ConvTranspose1d::flops(const Shape& in) const {
  check(in.size() == 2, "ConvTranspose1d flops expects [C, L]");
  return 2L * out_ch_ * in_ch_ * kernel_ * in[1];
}

// --------------------------------------------------------------- Flatten ----

Tensor Flatten::forward(const Tensor& x) {
  cached_shape_ = x.shape();
  return forward_inference(x);
}

Tensor Flatten::forward_inference(const Tensor& x) {
  check(x.rank() >= 2, "Flatten expects a batched tensor");
  Index inner = 1;
  for (Index a = 1; a < x.rank(); ++a) inner *= x.dim(a);
  return x.reshaped({x.dim(0), inner});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

Shape Flatten::output_shape(const Shape& in) const {
  return {shape_numel(in)};
}

// ---------------------------------------------------------- LastTimeStep ----

Tensor LastTimeStep::forward(const Tensor& x) {
  check(x.rank() == 3, "LastTimeStep expects [N, C, L]");
  cached_shape_ = x.shape();
  return forward_inference(x);
}

Tensor LastTimeStep::forward_inference(const Tensor& x) {
  check(x.rank() == 3, "LastTimeStep expects [N, C, L]");
  const Index n = x.dim(0);
  const Index c = x.dim(1);
  const Index l = x.dim(2);
  Tensor y({n, c});
  for (Index b = 0; b < n; ++b)
    for (Index ch = 0; ch < c; ++ch) y[b * c + ch] = x[(b * c + ch) * l + (l - 1)];
  return y;
}

Tensor LastTimeStep::backward(const Tensor& grad_out) {
  check(cached_shape_.size() == 3, "LastTimeStep backward called without matching forward");
  const Index n = cached_shape_[0];
  const Index c = cached_shape_[1];
  const Index l = cached_shape_[2];
  check(grad_out.rank() == 2 && grad_out.dim(0) == n && grad_out.dim(1) == c,
        "LastTimeStep backward shape mismatch");
  Tensor g(cached_shape_);
  for (Index b = 0; b < n; ++b)
    for (Index ch = 0; ch < c; ++ch) g[(b * c + ch) * l + (l - 1)] = grad_out[b * c + ch];
  return g;
}

Shape LastTimeStep::output_shape(const Shape& in) const {
  check(in.size() == 2, "LastTimeStep output_shape expects [C, L]");
  return {in[0]};
}

// ------------------------------------------------------- ResidualBlock1d ----

ResidualBlock1d::ResidualBlock1d(Index channels, Rng& rng)
    : conv1_(channels, channels, 3, 1, 1, rng), conv2_(channels, channels, 3, 1, 1, rng) {}

Tensor ResidualBlock1d::forward(const Tensor& x) {
  Tensor h = relu1_.forward(x);
  h = conv1_.forward(h);
  h = relu2_.forward(h);
  h = conv2_.forward(h);
  return h + x;
}

Tensor ResidualBlock1d::forward_inference(const Tensor& x) {
  Tensor h = relu1_.forward_inference(x);
  h = conv1_.forward_inference(h);
  h = relu2_.forward_inference(h);
  h = conv2_.forward_inference(h);
  return h + x;
}

Tensor ResidualBlock1d::backward(const Tensor& grad_out) {
  Tensor g = conv2_.backward(grad_out);
  g = relu2_.backward(g);
  g = conv1_.backward(g);
  g = relu1_.backward(g);
  return g + grad_out;  // skip connection
}

std::vector<Parameter*> ResidualBlock1d::parameters() {
  std::vector<Parameter*> ps = conv1_.parameters();
  auto p2 = conv2_.parameters();
  ps.insert(ps.end(), p2.begin(), p2.end());
  return ps;
}

long ResidualBlock1d::flops(const Shape& in) const {
  return conv1_.flops(in) + conv2_.flops(in) + 2 * shape_numel(in);
}

}  // namespace varade::nn
