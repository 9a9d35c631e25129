#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/buffer_pool.h"
#include "tensor/dispatch.h"

namespace rptcn {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  RPTCN_CHECK(a.same_shape(b), op << ": shape mismatch " << a.shape_string()
                                  << " vs " << b.shape_string());
}

// zip/map run on contiguous restrict-qualified raw pointers with the functor
// inlined as a template parameter (no std::function indirection), so the
// compiler auto-vectorises the arithmetic cases and the libm ones
// (exp/tanh) at least stay in one tight loop.

template <typename F>
Tensor zip(const Tensor& a, const Tensor& b, F&& f, const char* op) {
  check_same_shape(a, b, op);
  Tensor out(a.shape());
  const float* __restrict pa = a.raw();
  const float* __restrict pb = b.raw();
  float* __restrict po = out.raw();
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

template <typename F>
Tensor unary(const Tensor& a, F&& f) {
  Tensor out(a.shape());
  const float* __restrict pa = a.raw();
  float* __restrict po = out.raw();
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

/// The one stabilised exponential kernel: out[i] = exp(out[i]) in place.
/// softmax_lastdim writes row-max-shifted inputs into its output buffer and
/// exponentiates here; exp_t and sigmoid reuse the same loop so every
/// transcendental path in the library goes through one kernel — the
/// dispatched polynomial vexp (tensor/dispatch.h), bit-identical in every
/// arch tier and independent of libm.
void vexp_inplace(float* p, std::size_t n) { kernels().vexp(p, n); }
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return zip(a, b, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return zip(a, b, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return zip(a, b, [](float x, float y) { return x * y; }, "mul");
}
Tensor div(const Tensor& a, const Tensor& b) {
  return zip(a, b, [](float x, float y) { return x / y; }, "div");
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}
Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  check_same_shape(x, y, "axpy");
  const auto px = x.data();
  auto py = y.data();
  for (std::size_t i = 0; i < px.size(); ++i) py[i] += alpha * px[i];
}

void scale_inplace(Tensor& y, float s) {
  for (auto& v : y.data()) v *= s;
}

void add_inplace(Tensor& y, const Tensor& x) { axpy(1.0f, x, y); }

Tensor map(const Tensor& a, const std::function<float(float)>& f) {
  return unary(a, [&f](float x) { return f(x); });
}

Tensor relu(const Tensor& a) {
  return unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor sigmoid(const Tensor& a) {
  // 1/(1+exp(-x)) through the shared exp kernel: negate, exponentiate in
  // place, then one rational pass. Saturates cleanly (exp(-x) -> inf gives
  // exactly 0) — same values as the scalar form, one buffer end to end.
  Tensor out = neg(a);
  vexp_inplace(out.raw(), out.size());
  float* __restrict po = out.raw();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) po[i] = 1.0f / (1.0f + po[i]);
  return out;
}
Tensor tanh_t(const Tensor& a) {
  Tensor out = a;
  kernels().vtanh(out.raw(), out.size());
  return out;
}

void sigmoid_inplace(float* p, std::size_t n) {
  // Same pipeline as sigmoid() above, minus the out-of-place negate.
  for (std::size_t i = 0; i < n; ++i) p[i] = -p[i];
  vexp_inplace(p, n);
  for (std::size_t i = 0; i < n; ++i) p[i] = 1.0f / (1.0f + p[i]);
}

void tanh_inplace(float* p, std::size_t n) { kernels().vtanh(p, n); }
Tensor exp_t(const Tensor& a) {
  Tensor out = a;
  vexp_inplace(out.raw(), out.size());
  return out;
}
Tensor log_t(const Tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}
Tensor sqrt_t(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
Tensor square(const Tensor& a) {
  return unary(a, [](float x) { return x * x; });
}
Tensor abs_t(const Tensor& a) {
  return unary(a, [](float x) { return std::fabs(x); });
}

float sum(const Tensor& a) {
  double s = 0.0;
  for (float v : a.data()) s += v;
  return static_cast<float>(s);
}

float mean(const Tensor& a) {
  RPTCN_CHECK(a.size() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.size());
}

float max_abs(const Tensor& a) {
  float m = 0.0f;
  for (float v : a.data()) m = std::max(m, std::fabs(v));
  return m;
}

float norm2(const Tensor& a) { return norm2_raw(a.raw(), a.size()); }

float norm2_raw(const float* p, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(std::sqrt(s));
}

Tensor sum_rows(const Tensor& a) {
  RPTCN_CHECK(a.rank() == 2, "sum_rows expects rank 2");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({m});
  for (std::size_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += a.at(i, j);
    out.at(i) = static_cast<float>(s);
  }
  return out;
}

Tensor sum_cols(const Tensor& a) {
  RPTCN_CHECK(a.rank() == 2, "sum_cols expects rank 2");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out.at(j) += a.at(i, j);
  return out;
}

// ---------------------------------------------------------------------------
// GEMM: one blocked, packed, register-tiled kernel serving all three layout
// variants (NN, TN, NT). The input layout only affects the packing routines;
// the micro-kernel is branch-free and identical everywhere. The micro-kernel
// and pack routines themselves come from the runtime-dispatched KernelTable
// (tensor/dispatch.h): scalar 8x8, avx2 8x8 intrinsics, avx512 16x16 — all
// bit-identical per element.
//
// Structure (BLIS-style, scaled to L1/L2 on a laptop-class core):
//   * K is split into kKC panels; for each panel the B block [kc x n] is
//     packed once into column panels of width kt.nr (k-major);
//   * rows are split into kMC blocks (OpenMP over row blocks — this is the
//     only parallel axis, so every C element is written by exactly one
//     thread and results are bit-identical for any thread count);
//   * each row block packs its A panel [mc x kc] into row panels of height
//     kt.mr (k-major) and runs the kt.mr x kt.nr micro-kernel.
//
// Determinism contract: per C element the reduction order is an fma chain
// from zero over each kKC panel (k ascending, one rounding per product),
// each panel's sum added to C in ascending panel order (kKC lives in
// tensor/dispatch.h; the small-shape kernel reduces the same way). Tile
// geometry and the small-vs-blocked choice only change which elements are
// computed together, never the per-element sequence, so results are
// identical across shapes and tiers. No data-dependent branches, no atomic
// reductions. tests/test_tensor_ops.cpp checks bit-exact equality against a
// reference loop that mirrors this reduction order;
// tests/test_kernel_dispatch.cpp checks it across tiers.
namespace {

constexpr std::size_t kMC = 64;  // row-block height (A panel rows)
// Largest micro-tile any tier registers (avx512 is 16x16); sizes the
// stack accumulator in gemm_row_block.
constexpr std::size_t kMaxTileElems = 16 * 16;
// Below this flop count the packing overhead dominates; use the small-shape
// loop nest, which reduces in the same order. A pure cost choice: shape-only,
// never data-dependent, and invisible in the result bits.
constexpr std::size_t kSmallGemmFlops = 1u << 13;
// OpenMP fan-out threshold for the blocked path.
constexpr std::size_t kParallelGemmFlops = 1u << 16;

/// Registry handles for the GEMM counters, resolved once. Accounting is
/// computed analytically before the blocked loops so the hot path (and the
/// OpenMP region) stays untouched.
struct GemmMetrics {
  obs::Counter& calls = obs::metrics().counter("kernel/gemm_calls");
  obs::Counter& flops = obs::metrics().counter("kernel/gemm_flops");
  obs::Counter& bytes_packed =
      obs::metrics().counter("kernel/gemm_bytes_packed");
};

GemmMetrics& gemm_metrics() {
  static GemmMetrics* m = new GemmMetrics();
  return *m;
}

/// One row block of the blocked kernel: pack the A panel and drive the
/// micro-kernel against an already-packed B k-panel. Shared by gemm and the
/// prepacked-B replay so both paths execute the identical code (and thus
/// the identical rounding sequence).
void gemm_row_block(const KernelTable& kt, std::size_t i0, std::size_t mc,
                    std::size_t n, std::size_t kc, std::size_t p0,
                    const float* a, std::size_t lda, bool ta,
                    const float* bpack, float* c) {
  pool::Scratch apack(((mc + kt.mr - 1) / kt.mr) * kt.mr * kc);
  kt.pack_a(a, lda, ta, i0, p0, mc, kc, apack.data());
  for (std::size_t jr = 0; jr < n; jr += kt.nr) {
    const std::size_t nr = std::min(kt.nr, n - jr);
    const float* bp = bpack + jr * kc;
    for (std::size_t ir = 0; ir < mc; ir += kt.mr) {
      const std::size_t mr = std::min(kt.mr, mc - ir);
      float acc[kMaxTileElems];
      kt.micro_kernel(kc, apack.data() + ir * kc, bp, acc);
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i0 + ir + r) * n + jr;
        for (std::size_t cc = 0; cc < nr; ++cc)
          crow[cc] += acc[r * kt.nr + cc];
      }
    }
  }
}

/// Analytic pack-traffic accounting for the blocked path (bytes_packed
/// counter); b_side toggles whether the B panels count (they do not when a
/// prepacked B is replayed).
void count_packed_bytes(const KernelTable& kt, std::size_t m, std::size_t n,
                        std::size_t k, bool b_side) {
  const std::size_t n_panels = (n + kt.nr - 1) / kt.nr;
  std::uint64_t packed_rows = 0;
  for (std::size_t i0 = 0; i0 < m; i0 += kMC) {
    const std::size_t mc = std::min(kMC, m - i0);
    packed_rows += (mc + kt.mr - 1) / kt.mr * kt.mr;
  }
  if (b_side) packed_rows += n_panels * kt.nr;
  gemm_metrics().bytes_packed.add(packed_rows *
                                  static_cast<std::uint64_t>(k) *
                                  sizeof(float));
}

/// C[m,n] += op(A) * op(B) with C zero-initialised by the caller.
/// op is transpose iff ta/tb; lda/ldb are the *storage* leading dimensions.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, bool ta, const float* b, std::size_t ldb, bool tb,
          float* c) {
  const KernelTable& kt = kernels();
  const bool metrics_on = obs::enabled();
  if (metrics_on) {
    gemm_metrics().calls.add(1);
    gemm_metrics().flops.add(2ull * m * n * k);
  }
  if (m * n * k <= kSmallGemmFlops) {
    kt.gemm_small(m, n, k, a, lda, ta, b, ldb, tb, c);
    return;
  }
  const std::size_t n_panels = (n + kt.nr - 1) / kt.nr;
  if (metrics_on) count_packed_bytes(kt, m, n, k, /*b_side=*/true);
  pool::Scratch bpack(kKC * n_panels * kt.nr);
  const std::size_t row_blocks = (m + kMC - 1) / kMC;
  const bool fan_out =
      m * n * k > kParallelGemmFlops && kernel_parallelism_allowed();
  for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
    const std::size_t kc = std::min(kKC, k - p0);
    kt.pack_b(b, ldb, tb, p0, kc, n, bpack.data());
#pragma omp parallel for schedule(static) if (fan_out)
    for (std::size_t blk = 0; blk < row_blocks; ++blk) {
      const std::size_t i0 = blk * kMC;
      const std::size_t mc = std::min(kMC, m - i0);
      gemm_row_block(kt, i0, mc, n, kc, p0, a, lda, ta, bpack.data(), c);
    }
  }
}

}  // namespace

void gemm_accumulate(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, bool trans_a,
                     const float* b, std::size_t ldb, bool trans_b, float* c) {
  gemm(m, n, k, a, lda, trans_a, b, ldb, trans_b, c);
}

bool gemm_uses_blocked(std::size_t m, std::size_t n, std::size_t k) {
  return m * n * k > kSmallGemmFlops;
}

PackedB gemm_pack_b(const float* b, std::size_t ldb, bool trans_b,
                    std::size_t k, std::size_t n) {
  const KernelTable& kt = kernels();
  PackedB pb;
  pb.k = k;
  pb.n = n;
  pb.nr = kt.nr;
  const std::size_t n_panels = (n + kt.nr - 1) / kt.nr;
  std::size_t off = 0;
  for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
    const std::size_t kc = std::min(kKC, k - p0);
    pb.panel_off.push_back(off);
    off += n_panels * kt.nr * kc;
  }
  pb.data.resize(off);
  std::size_t pi = 0;
  for (std::size_t p0 = 0; p0 < k; p0 += kKC, ++pi) {
    const std::size_t kc = std::min(kKC, k - p0);
    kt.pack_b(b, ldb, trans_b, p0, kc, n, pb.data.data() + pb.panel_off[pi]);
  }
  return pb;
}

void gemm_accumulate_packed_b(std::size_t m, std::size_t n, std::size_t k,
                              const float* a, std::size_t lda, bool trans_a,
                              const PackedB& b, float* c) {
  const KernelTable& kt = kernels();
  RPTCN_CHECK(b.k == k && b.n == n, "packed B shape mismatch: packed ["
                                        << b.k << ", " << b.n << "], GEMM ["
                                        << k << ", " << n << "]");
  RPTCN_CHECK(b.nr == kt.nr,
              "packed B panel width " << b.nr << " does not match the active "
              "kernel tier's " << kt.nr << " (" << kernel_arch_name(kt.arch)
              << "); repack after switching tiers");
  RPTCN_CHECK(gemm_uses_blocked(m, n, k),
              "gemm_accumulate_packed_b on a small shape: " << m << "x" << n
                                                            << "x" << k);
  const bool metrics_on = obs::enabled();
  if (metrics_on) {
    gemm_metrics().calls.add(1);
    gemm_metrics().flops.add(2ull * m * n * k);
    count_packed_bytes(kt, m, n, k, /*b_side=*/false);
  }
  const std::size_t row_blocks = (m + kMC - 1) / kMC;
  const bool fan_out =
      m * n * k > kParallelGemmFlops && kernel_parallelism_allowed();
  std::size_t pi = 0;
  for (std::size_t p0 = 0; p0 < k; p0 += kKC, ++pi) {
    const std::size_t kc = std::min(kKC, k - p0);
    const float* bpack = b.data.data() + b.panel_off[pi];
#pragma omp parallel for schedule(static) if (fan_out)
    for (std::size_t blk = 0; blk < row_blocks; ++blk) {
      const std::size_t i0 = blk * kMC;
      const std::size_t mc = std::min(kMC, m - i0);
      gemm_row_block(kt, i0, mc, n, kc, p0, a, lda, trans_a, bpack, c);
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  RPTCN_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  RPTCN_CHECK(b.dim(0) == k, "matmul inner-dimension mismatch: "
                                 << a.shape_string() << " x " << b.shape_string());
  Tensor c({m, n});
  gemm(m, n, k, a.raw(), k, false, b.raw(), n, false, c.raw());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  RPTCN_CHECK(a.rank() == 2 && b.rank() == 2, "matmul_tn expects rank-2 tensors");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  RPTCN_CHECK(b.dim(0) == m, "matmul_tn outer-dimension mismatch");
  // C[k,n] = A^T * B given A[m,k], B[m,n]: the packing transposes A.
  Tensor c({k, n});
  gemm(k, n, m, a.raw(), k, true, b.raw(), n, false, c.raw());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  RPTCN_CHECK(a.rank() == 2 && b.rank() == 2, "matmul_nt expects rank-2 tensors");
  const std::size_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  RPTCN_CHECK(b.dim(1) == n, "matmul_nt inner-dimension mismatch");
  // C[m,k] = A * B^T given A[m,n], B[k,n]: the packing transposes B.
  Tensor c({m, k});
  gemm(m, k, n, a.raw(), n, false, b.raw(), n, true, c.raw());
  return c;
}

Tensor transpose2d(const Tensor& a) {
  RPTCN_CHECK(a.rank() == 2, "transpose2d expects rank 2");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  return out;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  RPTCN_CHECK(a.rank() == 2 && x.rank() == 1, "matvec expects (2-D, 1-D)");
  RPTCN_CHECK(a.dim(1) == x.dim(0), "matvec dimension mismatch");
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor y({m});
  for (std::size_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += static_cast<double>(a.at(i, j)) * x.at(j);
    y.at(i) = static_cast<float>(s);
  }
  return y;
}

void softmax_rows(const float* in, float* out, std::size_t rows,
                  std::size_t last) {
  // Single output buffer, no temporaries: shift by the row max into `out`,
  // exponentiate in place through the shared kernel, then normalise.
  // No __restrict here: the contract allows in == out (the row max is read
  // before the first aliased write of each row).
  for (std::size_t r = 0; r < rows; ++r) {
    const float* pi = in + r * last;
    float* o = out + r * last;
    float mx = pi[0];
    for (std::size_t j = 1; j < last; ++j) mx = std::max(mx, pi[j]);
    for (std::size_t j = 0; j < last; ++j) o[j] = pi[j] - mx;
    vexp_inplace(o, last);
    double denom = 0.0;
    for (std::size_t j = 0; j < last; ++j) denom += o[j];
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < last; ++j) o[j] *= inv;
  }
}

Tensor softmax_lastdim(const Tensor& a) {
  RPTCN_CHECK(a.rank() >= 1, "softmax of rank-0 tensor");
  const std::size_t last = a.shape().back();
  const std::size_t rows = a.size() / last;
  Tensor out(a.shape());
  softmax_rows(a.raw(), out.raw(), rows, last);
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  const auto pa = a.data();
  const auto pb = b.data();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
    if (std::isnan(pa[i]) != std::isnan(pb[i])) return false;
  }
  return true;
}

}  // namespace rptcn
