// Raw (non-autograd) tensor math.
//
// These kernels are the numeric substrate shared by the autograd layer and
// the classical baselines. The three GEMM variants (NN/TN/NT) share one
// blocked, packed, register-tiled kernel whose micro-kernel, pack routines,
// and transcendental loops come from the runtime-dispatched KernelTable
// (tensor/dispatch.h: scalar / avx2 / avx512 tiers, bit-identical across
// tiers). All kernels are branch-free on data and bit-deterministic for
// any thread count: parallelism is only ever over disjoint output rows, and
// per-element reduction order is fixed. Kernel-level OpenMP collapses to one
// thread while the experiment worker pool is saturated (see
// common/thread_pool.h).
#pragma once

#include <functional>

#include "tensor/tensor.h"

namespace rptcn {

// -- elementwise binary (shapes must match exactly) --------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// -- scalar ops ---------------------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

// -- in-place helpers ---------------------------------------------------------
/// y += alpha * x (shapes must match).
void axpy(float alpha, const Tensor& x, Tensor& y);
/// y *= s.
void scale_inplace(Tensor& y, float s);
/// y += x.
void add_inplace(Tensor& y, const Tensor& x);

// -- unary maps ---------------------------------------------------------------
Tensor map(const Tensor& a, const std::function<float(float)>& f);
Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh_t(const Tensor& a);
Tensor exp_t(const Tensor& a);
Tensor log_t(const Tensor& a);
Tensor sqrt_t(const Tensor& a);
Tensor square(const Tensor& a);
Tensor abs_t(const Tensor& a);

// -- reductions ----------------------------------------------------------------
float sum(const Tensor& a);
float mean(const Tensor& a);
float max_abs(const Tensor& a);
/// L2 norm of all elements.
float norm2(const Tensor& a);
/// L2 norm of a raw span. norm2 delegates here; callers that hold gradient
/// slabs instead of Tensors (the planned training step) use it directly so
/// the double accumulation is the one this translation unit compiles.
float norm2_raw(const float* p, std::size_t n);
/// Row sums of a 2-D tensor -> rank-1 [rows].
Tensor sum_rows(const Tensor& a);
/// Column sums of a 2-D tensor -> rank-1 [cols].
Tensor sum_cols(const Tensor& a);

// -- linear algebra -------------------------------------------------------------
/// Raw GEMM entry point: C[m,n] += op(A)·op(B), where op transposes iff
/// trans_a/trans_b and lda/ldb are the *storage* leading dimensions. C must
/// be initialised by the caller (zeros, or a bias to accumulate onto). Same
/// deterministic kernels as matmul/_tn/_nt, with one per-element order for
/// every shape: an fma chain from zero per kKC-deep k panel, each panel's
/// sum added to C in ascending order (tensor/dispatch.h). Each C element
/// therefore depends only on its row of op(A) and its column of op(B),
/// never on m or n. Exposed for
/// callers that manage their own buffers — the conv1d im2col lowering in
/// autograd/op_conv1d.cpp drives all three of its GEMMs through this.
void gemm_accumulate(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, bool trans_a,
                     const float* b, std::size_t ldb, bool trans_b, float* c);

/// True iff gemm_accumulate(m,n,k,...) takes the blocked packed path rather
/// than the small-shape loop nest. Shape-only, never data-dependent. Both
/// paths reduce each element in the same order (tensor/dispatch.h, kKC), so
/// the choice is a cost choice; the graph planner uses it to prepack a
/// weight only where the blocked path would pack it on every call.
bool gemm_uses_blocked(std::size_t m, std::size_t n, std::size_t k);

/// A GEMM B operand packed ahead of time into the blocked kernel's k-major
/// column panels — byte-for-byte the layout pack_b produces per k-panel on
/// the fly, so replaying through gemm_accumulate_packed_b is bit-identical
/// to gemm_accumulate on the unpacked operand. Prepacking a weight matrix
/// once (LSTM gate weights, linear heads) removes the per-call pack_b pass
/// and its scratch acquire from every replay.
struct PackedB {
  std::vector<float> data;              ///< concatenated per-k-panel packs
  std::vector<std::size_t> panel_off;   ///< float offset of each k-panel
  std::size_t k = 0;                    ///< logical rows of op(B)
  std::size_t n = 0;                    ///< logical cols of op(B)
  /// Panel width (nr) of the kernel tier that packed this operand. The
  /// layout is tier-dependent (avx512 packs 16-wide panels); replay checks
  /// it against the active tier and fails loudly on a mismatch, so packs
  /// cannot silently survive a test-hook arch switch.
  std::size_t nr = 0;
};

/// Pack op(B)[k,n] (transpose applied iff trans_b, ldb = storage leading
/// dimension) for gemm_accumulate_packed_b.
PackedB gemm_pack_b(const float* b, std::size_t ldb, bool trans_b,
                    std::size_t k, std::size_t n);

/// gemm_accumulate with a prepacked B, bit-identical to the unpacked call.
/// Only valid on shapes where gemm_uses_blocked(m,n,k) holds (checked): a
/// small shape never packs, so a pack for it is a planner bug.
void gemm_accumulate_packed_b(std::size_t m, std::size_t n, std::size_t k,
                              const float* a, std::size_t lda, bool trans_a,
                              const PackedB& b, float* c);

/// C = A[m,k] * B[k,n]; blocked + packed, OpenMP over row blocks.
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T * B -> (k x n) given A[m,k], B[m,n]; same blocked kernel.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A * B^T -> (m x k) given A[m,n], B[k,n]; same blocked kernel.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// 2-D transpose.
Tensor transpose2d(const Tensor& a);
/// Matrix-vector product: A[m,n] * x[n] -> [m].
Tensor matvec(const Tensor& a, const Tensor& x);

// -- softmax ---------------------------------------------------------------------
/// Numerically stable softmax over the last dimension (any rank >= 1).
Tensor softmax_lastdim(const Tensor& a);

/// Raw row-wise kernel behind softmax_lastdim: `rows` independent rows of
/// `last` elements, in == out allowed. Exposed so the planned executor runs
/// the exact kernel (max-shift, shared exp, double-accumulated denominator)
/// the eager path runs.
void softmax_rows(const float* in, float* out, std::size_t rows,
                  std::size_t last);

/// Raw kernels behind sigmoid / tanh_t: p[i] = sigmoid(p[i]) (negate, shared
/// exp kernel, one rational pass — the exact sigmoid() pipeline) and
/// p[i] = tanh(p[i]). Exposed so the planned executor's fused LSTM gate op
/// evaluates transcendentals in this translation unit, with the same
/// compile flags and the same code paths as the eager ops.
void sigmoid_inplace(float* p, std::size_t n);
void tanh_inplace(float* p, std::size_t n);

// -- comparison (for tests) --------------------------------------------------------
/// True iff shapes match and every |a-b| <= atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace rptcn
