// AVX-512 kernel tier. Compiled with -mavx512f -mavx512bw -mavx512dq
// -mavx512vl -mfma (gated by RPTCN_KERNELS_AVX512 from CMake); registers a
// 512-bit 16x16 GEMM micro-kernel (16 zmm accumulators) and mask-blended
// exp/tanh through the shared polynomial cores. Bit-identical to the scalar tier by construction — the wider
// micro-tile only changes which elements are computed together, never the
// per-element fma chain (zero-padded panel lanes are separate tile elements
// that edge writeback simply discards — they never touch real outputs).

#include "tensor/dispatch.h"

#if defined(RPTCN_KERNELS_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

#include "tensor/kernels_detail.h"

namespace rptcn {
namespace {

// 512-bit instantiation of the vector-ops concept in kernels_detail.h.
// Comparisons produce __mmask16 and selects use mask blends, but the
// lanewise semantics match VecScalar exactly.
struct VecAvx512 {
  static constexpr std::size_t kWidth = 16;
  using F = __m512;
  using I = __m512i;
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static F set1(float v) { return _mm512_set1_ps(v); }
  static I set1_i(std::int32_t v) { return _mm512_set1_epi32(v); }
  static F add(F a, F b) { return _mm512_add_ps(a, b); }
  static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F div(F a, F b) { return _mm512_div_ps(a, b); }
  static F fma(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F max_(F a, F b) { return _mm512_max_ps(a, b); }
  static F min_(F a, F b) { return _mm512_min_ps(a, b); }
  static F round_(F a) {
    return _mm512_roundscale_ps(a,
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static I f2i(F a) { return _mm512_cvtps_epi32(a); }
  static I add_i(I a, I b) { return _mm512_add_epi32(a, b); }
  static I sub_i(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I min_i(I a, I b) { return _mm512_min_epi32(a, b); }
  static F pow2_from_biased(I e) {
    return _mm512_castsi512_ps(_mm512_slli_epi32(e, 23));
  }
  static F abs_(F a) { return _mm512_abs_ps(a); }
  static F or_sign(F a, F x) {
    const F sign = _mm512_castsi512_ps(_mm512_and_epi32(
        _mm512_castps_si512(x),
        _mm512_set1_epi32(static_cast<std::int32_t>(0x80000000u))));
    return _mm512_castsi512_ps(_mm512_or_epi32(_mm512_castps_si512(a),
                                               _mm512_castps_si512(sign)));
  }
  static F select_gt(F a, F b, F t, F f) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, b, _CMP_GT_OQ), f, t);
  }
  static F select_lt(F a, F b, F t, F f) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, b, _CMP_LT_OQ), f, t);
  }
  static F select_nan(F a, F t, F f) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, a, _CMP_UNORD_Q), f, t);
  }
};

void vexp_avx512(float* p, std::size_t n) {
  kdetail::elementwise_inplace<VecAvx512, kdetail::exp_core<VecAvx512>,
                               kdetail::exp_scalar_lane>(p, n);
}

void vtanh_avx512(float* p, std::size_t n) {
  kdetail::elementwise_inplace<VecAvx512, kdetail::tanh_core<VecAvx512>,
                               kdetail::tanh_scalar_lane>(p, n);
}

/// 16x16 register tile: one zmm per output row, broadcast-A fmadd per
/// product, p ascending — the scalar per-element reduction order.
void micro_kernel_avx512(std::size_t kc, const float* ap, const float* bp,
                         float* acc) {
  __m512 c[16];
  for (int r = 0; r < 16; ++r) c[r] = _mm512_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m512 b = _mm512_loadu_ps(bp + p * 16);
    const float* arow = ap + p * 16;
    for (int r = 0; r < 16; ++r)
      c[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r]), b, c[r]);
  }
  for (int r = 0; r < 16; ++r) _mm512_storeu_ps(acc + r * 16, c[r]);
}

const KernelTable kTable = {
    /*arch=*/KernelArch::kAvx512,
    /*mr=*/16,
    /*nr=*/16,
    /*micro_kernel=*/micro_kernel_avx512,
    /*pack_a=*/kdetail::pack_a_impl<16>,
    /*pack_b=*/kdetail::pack_b_impl<16>,
    /*gemm_small=*/kdetail::gemm_small_impl,
    /*vexp=*/vexp_avx512,
    /*vtanh=*/vtanh_avx512,
    /*im2col=*/kdetail::im2col_impl,
};

}  // namespace

const KernelTable* kernel_table_avx512() { return &kTable; }

}  // namespace rptcn

#else  // tier not compiled in

namespace rptcn {
const KernelTable* kernel_table_avx512() { return nullptr; }
}  // namespace rptcn

#endif
