// The project's own single-precision exp, so no trained or scored bit goes
// through libm's exp.
//
// The algorithm is glibc 2.36's expf (sysdeps/ieee754/flt-32/e_expf.c), in
// the fused form of its x86-64 __expf_fma copy: x * 32/ln2 = k + r with
// kd = fma(32/ln2, x, 0x1.8p52) and r = fma(32/ln2, x, -(kd - 0x1.8p52)),
// then 2^(k/32) from a 32-entry table times a cubic in r, in double, rounded
// to float once. Special cases are glibc's: NaN -> x + x, -inf -> +0,
// x > 0x1.62e42ep6 -> +inf, x < -0x1.9fe368p6 -> +0, and
// x < -0x1.9d1d9ep6 -> 0x1p-149 (the value glibc's errno-setting underflow
// path returns). bench_expf_exhaustive checks every float against this
// host's libm; glibc's SSE2 copy, which rounds the products separately,
// differs on two inputs (README, "Training").
//
// The definitions live in layers.cpp: both functions dispatch through the
// nn kernel table, whose avx2+fma copy runs the fused operations as single
// instructions and whose portable copy emulates each one, with the same
// single rounding, in plain double arithmetic (no libm call).
#pragma once

#include "varade/tensor/tensor.hpp"

namespace varade::nn {

/// e^x, bit for bit glibc 2.36's expf on an FMA host.
float expf(float x);

/// out[r] = float(mean over i of double(expf(x[r * n + i]))) for r < rows:
/// each row's double sum adds its n values in ascending i, then divides by
/// n. VARADE's score (mean predicted variance over channels) is this on the
/// log-variance rows. A row's bits do not depend on `rows` or its place in
/// the batch.
void mean_exp_rows(const float* x, Index rows, Index n, float* out);

namespace detail {
/// Test-only: the two functions above through kernel table `table` (the
/// index order of kernel_tables() in layers.hpp).
float expf(Index table, float x);
void mean_exp_rows(Index table, const float* x, Index rows, Index n, float* out);
}  // namespace detail

}  // namespace varade::nn
