// Shared kernel bodies for the per-arch tiers (dispatch.h).
//
// Everything here lives in an ANONYMOUS namespace on purpose: each arch
// translation unit (kernels_scalar.cpp / kernels_avx2.cpp /
// kernels_avx512.cpp) is compiled with different ISA flags, and the
// instantiations must stay private to their TU — with external linkage the
// linker would fold the copies and one tier would silently run another
// tier's codegen. Internal linkage makes each TU's copy its own.
//
// Bit-identity across tiers rests on two rules encoded here:
//   1. Float kernels fix the per-element operation sequence (fma chains,
//      k-ascending reductions in kKC panels). Vectorising across elements
//      then cannot change any result, because lanes never interact.
//   2. The transcendental kernels (exp_core / tanh_core) are written once
//      against a tiny vector-ops concept `V`; the scalar specialisation
//      (VecScalar) performs literally the same per-lane operations the SIMD
//      specialisations perform, including vmaxps/vminps NaN semantics.
//      Loop tails in the SIMD tiers run exp_core<VecScalar>, which is the
//      scalar tier — so lane position never matters either.
//
// No libm anywhere: exp is a Cephes-style degree-5 polynomial with two-step
// exact power-of-two scaling (covers the full float range, +inf above
// 88.7228, flush-to-zero below -87.3365 where libm would return subnormals
// — documented rounding difference vs std::exp, identical across tiers);
// tanh is the Cephes odd split (direct polynomial for |x| <= 0.625, exp
// composition above).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/dispatch.h"

namespace rptcn::kdetail {
namespace {

// -- scalar lane ops ----------------------------------------------------------

/// Scalar instantiation of the vector-ops concept. SIMD tiers must match
/// these semantics lane-for-lane (notably: max_/min_ return the SECOND
/// operand when the comparison is unordered, mirroring vmaxps/vminps).
struct VecScalar {
  static constexpr std::size_t kWidth = 1;
  using F = float;
  using I = std::int32_t;
  static F load(const float* p) { return *p; }
  static void store(float* p, F v) { *p = v; }
  static F set1(float v) { return v; }
  static I set1_i(std::int32_t v) { return v; }
  static F add(F a, F b) { return a + b; }
  static F sub(F a, F b) { return a - b; }
  static F mul(F a, F b) { return a * b; }
  static F div(F a, F b) { return a / b; }
  static F fma(F a, F b, F c) { return std::fma(a, b, c); }
  static F max_(F a, F b) { return a > b ? a : b; }
  static F min_(F a, F b) { return a < b ? a : b; }
  static F round_(F a) { return std::nearbyintf(a); }
  static I f2i(F a) { return static_cast<I>(a); }
  static I add_i(I a, I b) { return a + b; }
  static I sub_i(I a, I b) { return a - b; }
  static I min_i(I a, I b) { return a < b ? a : b; }
  static F pow2_from_biased(I e) {
    return std::bit_cast<float>(static_cast<std::uint32_t>(e) << 23);
  }
  static F abs_(F a) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) & 0x7fffffffu);
  }
  /// a with x's sign bit OR-ed in (a must be non-negative).
  static F or_sign(F a, F x) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) |
                                (std::bit_cast<std::uint32_t>(x) &
                                 0x80000000u));
  }
  static F select_gt(F a, F b, F t, F f) { return a > b ? t : f; }
  static F select_lt(F a, F b, F t, F f) { return a < b ? t : f; }
  static F select_nan(F a, F t, F f) { return a != a ? t : f; }
};

// -- shared transcendental cores ----------------------------------------------

// Cephes expf constants (degree-5 minimax on [-ln2/2, ln2/2], ~2 ulp).
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kExpC1 = 0.693359375f;        // ln2 split, high part
inline constexpr float kExpC2 = -2.12194440e-4f;     // ln2 split, low part
inline constexpr float kExpHi = 88.722839f;          // exp(x) -> +inf above
inline constexpr float kExpLo = -87.336548f;         // exp(x) -> 0 below

/// p[i] = exp(p[i]) for one lane pack. Saturates exactly: +inf above kExpHi,
/// 0 below kExpLo (subnormal results flush to zero), NaN propagates.
template <class V>
inline typename V::F exp_core(typename V::F x) {
  using F = typename V::F;
  const F hi = V::set1(kExpHi);
  const F lo = V::set1(kExpLo);
  const F xc = V::min_(V::max_(x, lo), hi);  // also squashes NaN lanes
  const F n = V::round_(V::mul(xc, V::set1(kLog2e)));
  F r = V::fma(n, V::set1(-kExpC1), xc);
  r = V::fma(n, V::set1(-kExpC2), r);
  F p = V::set1(1.9875691500e-4f);
  p = V::fma(p, r, V::set1(1.3981999507e-3f));
  p = V::fma(p, r, V::set1(8.3334519073e-3f));
  p = V::fma(p, r, V::set1(4.1665795894e-2f));
  p = V::fma(p, r, V::set1(1.6666665459e-1f));
  p = V::fma(p, r, V::set1(5.0000001201e-1f));
  p = V::fma(V::mul(r, r), p, V::add(r, V::set1(1.0f)));  // exp(r)
  // Scale by 2^n in two exact power-of-two multiplies: n reaches 128 at the
  // high clamp, which a single biased exponent cannot represent.
  const auto ni = V::f2i(n);  // in [-126, 128] after the clamp
  const auto j = V::min_i(ni, V::set1_i(127));
  const F s1 = V::pow2_from_biased(V::add_i(j, V::set1_i(127)));
  const F s2 =
      V::pow2_from_biased(V::add_i(V::sub_i(ni, j), V::set1_i(127)));
  F out = V::mul(V::mul(p, s1), s2);
  const F inf = V::set1(std::numeric_limits<float>::infinity());
  out = V::select_gt(x, hi, inf, out);
  out = V::select_lt(x, lo, V::set1(0.0f), out);
  out = V::select_nan(x, x, out);
  return out;
}

/// tanh via the Cephes odd split. |x| <= 0.625: odd polynomial in x.
/// Above: 1 - 2/(exp(2|x|)+1) through the shared exp core, sign restored
/// bitwise. Saturates to exactly +/-1 for large |x|; NaN propagates through
/// the polynomial branch.
template <class V>
inline typename V::F tanh_core(typename V::F x) {
  using F = typename V::F;
  const F ax = V::abs_(x);
  const F e = exp_core<V>(V::mul(ax, V::set1(2.0f)));
  F big = V::sub(V::set1(1.0f),
                 V::div(V::set1(2.0f), V::add(e, V::set1(1.0f))));
  big = V::or_sign(big, x);
  const F z = V::mul(x, x);
  F q = V::set1(-5.70498872745e-3f);
  q = V::fma(q, z, V::set1(2.06390887954e-2f));
  q = V::fma(q, z, V::set1(-5.37397155531e-2f));
  q = V::fma(q, z, V::set1(1.33314422036e-1f));
  q = V::fma(q, z, V::set1(-3.33332819422e-1f));
  const F small = V::fma(V::mul(q, z), x, x);
  return V::select_gt(ax, V::set1(0.625f), big, small);
}

/// In-place elementwise driver: full-width packs through V, the remainder
/// through VecScalar (identical per-element results, so the split point is
/// unobservable).
template <class V, typename V::F (*CoreV)(typename V::F),
          float (*CoreS)(float)>
inline void elementwise_inplace(float* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth)
    V::store(p + i, CoreV(V::load(p + i)));
  for (; i < n; ++i) p[i] = CoreS(p[i]);
}

// -- GEMM building blocks -----------------------------------------------------

/// Element accessor abstraction: op(M)(i,j) with optional transpose.
inline float at_maybe_t(const float* p, std::size_t ld, bool trans,
                        std::size_t i, std::size_t j) {
  return trans ? p[j * ld + i] : p[i * ld + j];
}

/// Pack op(A)[mc x kc] (transpose applied) into row panels of height MR,
/// k-major inside each panel; short panels are zero-padded.
template <std::size_t MR>
inline void pack_a_impl(const float* a, std::size_t lda, bool trans,
                        std::size_t i0, std::size_t p0, std::size_t mc,
                        std::size_t kc, float* buf) {
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t mr = std::min(MR, mc - ir);
    float* panel = buf + ir * kc;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < mr; ++r)
        panel[p * MR + r] = at_maybe_t(a, lda, trans, i0 + ir + r, p0 + p);
      for (std::size_t r = mr; r < MR; ++r) panel[p * MR + r] = 0.0f;
    }
  }
}

/// Pack op(B)[kc x n] (transpose applied) into column panels of width NR,
/// k-major inside each panel; short panels are zero-padded.
template <std::size_t NR>
inline void pack_b_impl(const float* b, std::size_t ldb, bool trans,
                        std::size_t p0, std::size_t kc, std::size_t n,
                        float* buf) {
  for (std::size_t jr = 0; jr < n; jr += NR) {
    const std::size_t nr = std::min(NR, n - jr);
    float* panel = buf + jr * kc;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t c = 0; c < nr; ++c)
        panel[p * NR + c] = at_maybe_t(b, ldb, trans, p0 + p, jr + c);
      for (std::size_t c = nr; c < NR; ++c) panel[p * NR + c] = 0.0f;
    }
  }
}

/// Portable MR x NR register tile: acc[r][c] = sum_p fma(Ap[p][r], Bp[p][c]),
/// k ascending, one fma rounding per product. Processed in strips of 4 rows
/// so each strip's accumulators stay in vector registers.
template <std::size_t MR, std::size_t NR>
inline void micro_kernel_impl(std::size_t kc, const float* ap, const float* bp,
                              float* acc /* MR*NR, zeroed */) {
  static_assert(MR % 4 == 0);
  for (std::size_t r0 = 0; r0 < MR; r0 += 4) {
    float a0[NR] = {0.0f}, a1[NR] = {0.0f};
    float a2[NR] = {0.0f}, a3[NR] = {0.0f};
    for (std::size_t p = 0; p < kc; ++p) {
      const float* arow = ap + p * MR + r0;
      const float* brow = bp + p * NR;
      const float v0 = arow[0], v1 = arow[1], v2 = arow[2], v3 = arow[3];
      for (std::size_t c = 0; c < NR; ++c) {
        a0[c] = std::fma(v0, brow[c], a0[c]);
        a1[c] = std::fma(v1, brow[c], a1[c]);
        a2[c] = std::fma(v2, brow[c], a2[c]);
        a3[c] = std::fma(v3, brow[c], a3[c]);
      }
    }
    for (std::size_t c = 0; c < NR; ++c) {
      acc[(r0 + 0) * NR + c] = a0[c];
      acc[(r0 + 1) * NR + c] = a1[c];
      acc[(r0 + 2) * NR + c] = a2[c];
      acc[(r0 + 3) * NR + c] = a3[c];
    }
  }
}

/// Small-shape GEMM, C[m,n] += op(A)·op(B), in the blocked kernel's order:
/// per C element an fma chain from zero over each kKC-deep k panel, each
/// panel's sum added to C in ascending order (dispatch.h). Columns run in
/// strips of kStrip, so one row's panel sums fit a stack buffer and every
/// inner loop vectorises across columns.
inline void gemm_small_impl(std::size_t m, std::size_t n, std::size_t k,
                            const float* a, std::size_t lda, bool ta,
                            const float* b, std::size_t ldb, bool tb,
                            float* c) {
  constexpr std::size_t kStrip = 256;
  float acc[kStrip];
  for (std::size_t j0 = 0; j0 < n; j0 += kStrip) {
    const std::size_t nc = std::min(kStrip, n - j0);
    const float* bs = tb ? b + j0 * ldb : b + j0;  // op(B) from column j0
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n + j0;
      for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
        const std::size_t p1 = std::min(k, p0 + kKC);
        // Start with fma(a, b, +0) as the micro-kernel's zeroed accumulator
        // does, not a*b: the two differ in the sign of a zero product.
        const float a0 = at_maybe_t(a, lda, ta, i, p0);
        for (std::size_t j = 0; j < nc; ++j)
          acc[j] = std::fma(a0, at_maybe_t(bs, ldb, tb, p0, j), 0.0f);
        for (std::size_t p = p0 + 1; p < p1; ++p) {
          const float av = at_maybe_t(a, lda, ta, i, p);
          for (std::size_t j = 0; j < nc; ++j)
            acc[j] = std::fma(av, at_maybe_t(bs, ldb, tb, p, j), acc[j]);
        }
        for (std::size_t j = 0; j < nc; ++j) crow[j] += acc[j];
      }
    }
  }
}

// -- im2col -------------------------------------------------------------------

/// Valid output range [t_lo, t_hi) of one kernel tap at offset `off`: the
/// t for which 0 <= t + off < t_in. Outside it the patch row is zero. Both
/// ends clamp to [0, t_out]: with pad > T_in a tap can sit entirely in the
/// zero padding, which must yield an empty range, not an out-of-bounds fill.
inline void tap_range_impl(std::ptrdiff_t off, std::size_t t_in,
                           std::size_t t_out, std::size_t& t_lo,
                           std::size_t& t_hi) {
  t_lo = off < 0 ? std::min(static_cast<std::size_t>(-off), t_out) : 0u;
  const std::ptrdiff_t hi =
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(t_out),
                               static_cast<std::ptrdiff_t>(t_in) - off);
  t_hi = hi > static_cast<std::ptrdiff_t>(t_lo)
             ? static_cast<std::size_t>(hi)
             : t_lo;
}

/// Causal-padding-aware im2col over nc sample-major samples:
/// patches[(ci*K + kk), s*T_out + t] = x[s, ci, t + kk*d - pad], zero where
/// the tap reaches the left padding. Pure data movement — exact in any tier.
inline void im2col_impl(const float* x, std::size_t xs, std::size_t xc,
                        std::size_t nc, std::size_t cin, std::size_t t_in,
                        std::size_t k, std::size_t d, std::size_t pad,
                        std::size_t t_out, float* patches) {
  const std::size_t nt = nc * t_out;
  for (std::size_t ci = 0; ci < cin; ++ci) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      float* row = patches + (ci * k + kk) * nt;
      const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk * d) -
                                 static_cast<std::ptrdiff_t>(pad);
      std::size_t t_lo, t_hi;
      tap_range_impl(off, t_in, t_out, t_lo, t_hi);
      for (std::size_t s = 0; s < nc; ++s) {
        float* seg = row + s * t_out;
        const float* xrow = x + s * xs + ci * xc;
        std::fill(seg, seg + t_lo, 0.0f);
        std::copy(xrow + static_cast<std::ptrdiff_t>(t_lo) + off,
                  xrow + static_cast<std::ptrdiff_t>(t_hi) + off, seg + t_lo);
        std::fill(seg + t_hi, seg + t_out, 0.0f);
      }
    }
  }
}

// Scalar entry points for the elementwise drivers (usable as CoreS template
// arguments from any tier).
inline float exp_scalar_lane(float x) { return exp_core<VecScalar>(x); }
inline float tanh_scalar_lane(float x) { return tanh_core<VecScalar>(x); }

}  // namespace
}  // namespace rptcn::kdetail
