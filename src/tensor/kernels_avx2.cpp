// AVX2+FMA kernel tier. Compiled with -mavx2 -mfma (gated by the
// RPTCN_KERNELS_AVX2 define from CMake); registers a 256-bit 8x8 GEMM
// micro-kernel and vectorised exp/tanh through the shared polynomial cores.
// Bit-identical to the scalar tier by construction — see kernels_detail.h
// for the contract.

#include "tensor/dispatch.h"

#if defined(RPTCN_KERNELS_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/kernels_detail.h"

namespace rptcn {
namespace {

// 256-bit instantiation of the vector-ops concept in kernels_detail.h.
// Semantics must match VecScalar lane-for-lane (NaN behaviour of
// max_/min_ matches vmaxps/vminps by definition here; VecScalar mirrors it).
struct VecAvx2 {
  static constexpr std::size_t kWidth = 8;
  using F = __m256;
  using I = __m256i;
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F set1(float v) { return _mm256_set1_ps(v); }
  static I set1_i(std::int32_t v) { return _mm256_set1_epi32(v); }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F div(F a, F b) { return _mm256_div_ps(a, b); }
  static F fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F max_(F a, F b) { return _mm256_max_ps(a, b); }
  static F min_(F a, F b) { return _mm256_min_ps(a, b); }
  static F round_(F a) {
    return _mm256_round_ps(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static I f2i(F a) { return _mm256_cvtps_epi32(a); }
  static I add_i(I a, I b) { return _mm256_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I min_i(I a, I b) { return _mm256_min_epi32(a, b); }
  static F pow2_from_biased(I e) {
    return _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  }
  static F abs_(F a) {
    return _mm256_and_ps(a, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  }
  static F or_sign(F a, F x) {
    const F sign =
        _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(
                             static_cast<std::int32_t>(0x80000000u))));
    return _mm256_or_ps(a, sign);
  }
  static F select_gt(F a, F b, F t, F f) {
    return _mm256_blendv_ps(f, t, _mm256_cmp_ps(a, b, _CMP_GT_OQ));
  }
  static F select_lt(F a, F b, F t, F f) {
    return _mm256_blendv_ps(f, t, _mm256_cmp_ps(a, b, _CMP_LT_OQ));
  }
  static F select_nan(F a, F t, F f) {
    return _mm256_blendv_ps(f, t, _mm256_cmp_ps(a, a, _CMP_UNORD_Q));
  }
};

void vexp_avx2(float* p, std::size_t n) {
  kdetail::elementwise_inplace<VecAvx2, kdetail::exp_core<VecAvx2>,
                               kdetail::exp_scalar_lane>(p, n);
}

void vtanh_avx2(float* p, std::size_t n) {
  kdetail::elementwise_inplace<VecAvx2, kdetail::tanh_core<VecAvx2>,
                               kdetail::tanh_scalar_lane>(p, n);
}

/// 8x8 register tile: one ymm per output row, broadcast-A fmadd per product.
/// Per element this is exactly acc = fma(a[p][r], b[p][c], acc) with p
/// ascending — the scalar reduction order.
void micro_kernel_avx2(std::size_t kc, const float* ap, const float* bp,
                       float* acc) {
  __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps(), c3 = _mm256_setzero_ps();
  __m256 c4 = _mm256_setzero_ps(), c5 = _mm256_setzero_ps();
  __m256 c6 = _mm256_setzero_ps(), c7 = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b = _mm256_loadu_ps(bp + p * 8);
    const float* arow = ap + p * 8;
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 0), b, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 1), b, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 2), b, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 3), b, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 4), b, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 5), b, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 6), b, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 7), b, c7);
  }
  _mm256_storeu_ps(acc + 0 * 8, c0);
  _mm256_storeu_ps(acc + 1 * 8, c1);
  _mm256_storeu_ps(acc + 2 * 8, c2);
  _mm256_storeu_ps(acc + 3 * 8, c3);
  _mm256_storeu_ps(acc + 4 * 8, c4);
  _mm256_storeu_ps(acc + 5 * 8, c5);
  _mm256_storeu_ps(acc + 6 * 8, c6);
  _mm256_storeu_ps(acc + 7 * 8, c7);
}

const KernelTable kTable = {
    /*arch=*/KernelArch::kAvx2,
    /*mr=*/8,
    /*nr=*/8,
    /*micro_kernel=*/micro_kernel_avx2,
    /*pack_a=*/kdetail::pack_a_impl<8>,
    /*pack_b=*/kdetail::pack_b_impl<8>,
    /*gemm_small=*/kdetail::gemm_small_impl,
    /*vexp=*/vexp_avx2,
    /*vtanh=*/vtanh_avx2,
    /*im2col=*/kdetail::im2col_impl,
};

}  // namespace

const KernelTable* kernel_table_avx2() { return &kTable; }

}  // namespace rptcn

#else  // tier not compiled in

namespace rptcn {
const KernelTable* kernel_table_avx2() { return nullptr; }
}  // namespace rptcn

#endif
