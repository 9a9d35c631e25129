// Differentiable operations on Variables.
//
// Conventions:
//  * Batched 2-D activations are [N, F]; temporal activations are [N, C, T]
//    (batch, channels, time), matching the paper's Conv1d formulation.
//  * Linear weights are [out, in]; Conv1d weights are [Cout, Cin, K].
//  * Ops validate shapes with RPTCN_CHECK and build backward closures only
//    when gradients are enabled and some input requires them.
#pragma once

#include "autograd/variable.h"

namespace rptcn {
class Rng;
}

namespace rptcn::ag {

// -- arithmetic ---------------------------------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable add_scalar(const Variable& a, float s);
Variable mul_scalar(const Variable& a, float s);
Variable neg(const Variable& a);

// -- linear algebra -------------------------------------------------------------
/// C[m,n] = A[m,k] * B[k,n].
Variable matmul(const Variable& a, const Variable& b);
/// y[N,O] = x[N,F] * w[O,F]^T (+ b[O] if b.defined()).
Variable linear(const Variable& x, const Variable& w, const Variable& b);

// -- activations -----------------------------------------------------------------
Variable relu(const Variable& a);
Variable sigmoid(const Variable& a);
Variable tanh_v(const Variable& a);

// -- shape -------------------------------------------------------------------------
Variable reshape(const Variable& a, std::vector<std::size_t> shape);

// -- temporal convolution (eq. 3/4 of the paper) -------------------------------------
/// Dilated causal 1-D convolution.
///   x: [N, Cin, T], w: [Cout, Cin, K], b: [Cout] or undefined.
/// left_pad < 0 selects causal padding (K-1)*dilation, which preserves T.
/// Output: [N, Cout, T + left_pad - (K-1)*dilation].
///
/// Forward, dX and dW are lowered onto the packed blocked GEMM via a
/// causal-padding-aware im2col patch matrix whenever the shape is large
/// enough to amortise the patch traffic (see Conv1dImpl); small shapes keep
/// the direct loops. Both paths compute the same convolution; they differ
/// only in float summation order (parity is gradcheck-tested).
Variable conv1d(const Variable& x, const Variable& w, const Variable& b,
                std::size_t dilation = 1, std::ptrdiff_t left_pad = -1);

/// Conv1d kernel dispatch. kAuto (default) picks by a flop-count cutoff:
/// large shapes lower to im2col+GEMM, tiny ones keep the direct loop.
/// kDirect / kIm2col pin one path — used by the parity tests and the
/// direct-vs-lowered benches. Process-wide; shape-dependent only, so
/// dispatch never depends on data.
enum class Conv1dImpl { kAuto, kDirect, kIm2col };
void set_conv1d_impl(Conv1dImpl impl);
Conv1dImpl conv1d_impl();

/// Batch-invariant conv dispatch. The kAuto cutoff depends on the batch
/// size N, so a coalesced batch could pick a different summation order than
/// the N=1 forward of each of its windows. While a scope is alive on the
/// current thread, every conv1d forward (ag::conv1d, fwd::conv1d and the
/// planned conv emitter) makes the N=1 decision instead, so each row of a
/// batched forward is bit-identical to its window's N=1 forward. Serving
/// runs under one; training never does. Chunking still uses the true N, and
/// kDirect/kIm2col pins win either way. Scopes nest.
class SingleWindowConvDispatch {
 public:
  SingleWindowConvDispatch();
  ~SingleWindowConvDispatch();
  SingleWindowConvDispatch(const SingleWindowConvDispatch&) = delete;
  SingleWindowConvDispatch& operator=(const SingleWindowConvDispatch&) = delete;

 private:
  bool previous_;
};

/// Weight normalisation: w[c,...] = g[c] * v[c,...] / ||v[c,...]||_2.
/// Used inside the TCN residual block (Fig. 6).
Variable weight_norm(const Variable& v, const Variable& g);

// -- regularisation -----------------------------------------------------------------
/// Inverted elementwise dropout: keeps with prob 1-p, scales by 1/(1-p).
/// Identity when !training or p == 0.
Variable dropout(const Variable& x, float p, Rng& rng, bool training);
/// Spatial (channel) dropout on [N, C, T]: zeroes entire channels.
Variable spatial_dropout(const Variable& x, float p, Rng& rng, bool training);

// -- attention building blocks (eqs. 7/8) ----------------------------------------------
/// Softmax over the last dimension (any rank >= 1).
Variable softmax_lastdim_v(const Variable& a);
/// Broadcast product a[N,1,T] ⊙ z[N,C,T] -> [N,C,T].
Variable mul_bcast_channel(const Variable& a, const Variable& z);
/// Sum over the last (time) dimension: [N,C,T] -> [N,C].
Variable sum_lastdim(const Variable& a);
/// Select one timestep: [N,C,T] -> [N,C].
Variable time_slice(const Variable& x, std::size_t t);

// -- sequence utilities ---------------------------------------------------------------
/// Reverse the time axis: [N,C,T] -> [N,C,T] with t' = T-1-t.
/// Used by the bidirectional-LSTM baseline.
Variable time_reverse(const Variable& x);
/// Concatenate along the feature axis: [N,A] ++ [N,B] -> [N,A+B].
Variable concat_cols(const Variable& a, const Variable& b);
/// Column slice of a 2-D activation: [N,F] -> [N,count] starting at `start`.
/// Used to peel per-gate activations out of the LSTM's fused pre-activation
/// GEMM; backward scatters into the sliced columns.
Variable slice_cols(const Variable& x, std::size_t start, std::size_t count);

// -- tape-free forward kernels ------------------------------------------------------------
// Tensor-level forward implementations shared by the Variable ops above and
// the serving layer (src/serve). Each Variable op computes its forward value
// by calling the matching fwd:: function, so an inference path built from
// these is bit-identical to the autograd forward by construction — there is
// exactly one copy of every forward numeric.
namespace fwd {

/// Dilated causal Conv1d forward (same contract as ag::conv1d, including
/// SingleWindowConvDispatch).
Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor* b,
              std::size_t dilation = 1, std::ptrdiff_t left_pad = -1);
/// y[N,O] = x[N,F] * w[O,F]^T (+ b[O] if non-null).
Tensor linear(const Tensor& x, const Tensor& w, const Tensor* b);
/// w[c,...] = g[c] * v[c,...] / ||v[c,...]||_2.
Tensor weight_norm(const Tensor& v, const Tensor& g);
/// Broadcast product a[N,1,T] ⊙ z[N,C,T] -> [N,C,T].
Tensor mul_bcast_channel(const Tensor& a, const Tensor& z);
/// Sum over the last (time) dimension: [N,C,T] -> [N,C].
Tensor sum_lastdim(const Tensor& a);
/// Select one timestep: [N,C,T] -> [N,C].
Tensor time_slice(const Tensor& x, std::size_t t);
/// Reverse the time axis: [N,C,T] -> [N,C,T] with t' = T-1-t.
Tensor time_reverse(const Tensor& x);
/// Concatenate along the feature axis: [N,A] ++ [N,B] -> [N,A+B].
Tensor concat_cols(const Tensor& a, const Tensor& b);
/// Column slice of a 2-D activation: [N,F] -> [N,count] starting at `start`.
Tensor slice_cols(const Tensor& x, std::size_t start, std::size_t count);

// -- conv1d lowering internals, exposed for the graph compiler ----------------
// A compiled plan must make exactly the dispatch decisions and run exactly
// the kernels the eager conv makes, or the two executors stop being
// bit-identical (the GEMM small/blocked paths round differently against a
// bias-prefilled C). These entry points are that shared substrate.

/// Causal-padding-aware im2col over nc samples with explicit input strides:
/// patches[(ci*K + kk), s*T_out + t] = x[s*xs + ci*xc + (t + kk*d - pad)],
/// zero outside [0, T_in). xs/xc express the input layout — sample-major
/// [N,C,T] uses (C*T_in, T_in); a channel-major [C, N*T_in] layout uses
/// (T_in, N*T_in).
void im2col_strided(const float* x, std::size_t xs, std::size_t xc,
                    std::size_t nc, std::size_t cin, std::size_t t_in,
                    std::size_t k, std::size_t d, std::size_t pad,
                    std::size_t t_out, float* patches);

/// Direct conv1d forward with explicit strides on input and output:
/// y[s*ys + co*yc + t] = b[co] + sum w[co,ci,kk] * x[s*xs + ci*xc + t+kk*d-pad].
/// b may be null (output rows are then zero-initialised). Identical loop
/// body (and OpenMP policy) as the eager direct kernel — it IS the eager
/// kernel, parameterised by layout. The OpenMP region only forks when one
/// window alone is at or above the GEMM flop cutoff (reachable when dispatch
/// is pinned): below it a fork costs more than the window's conv.
void conv1d_direct_strided(const float* x, std::size_t xs, std::size_t xc,
                           const float* w, const float* b, std::size_t n,
                           std::size_t cin, std::size_t t_in, std::size_t cout,
                           std::size_t k, std::size_t d, std::size_t pad,
                           std::size_t t_out, float* y, std::size_t ys,
                           std::size_t yc);

// -- raw conv1d kernels for the planned training step -------------------------
// Sample-major [N,C,T] layouts throughout. These are the loop bodies of the
// eager tape kernels (forward GEMM path, dX, dW, db), hoisted out of their
// Tensor wrappers so the planned training step can run them against arena
// pointers: same translation unit, same loops, bit-identical results.
// dX, dW and db ACCUMULATE into their outputs; callers zero-fill first,
// exactly as the tape closures allocate Tensor::zeros.

/// Shape-only GEMM-vs-direct dispatch of a conv1d forward: the predicate
/// fwd::conv1d evaluates per call (honours set_conv1d_impl and
/// SingleWindowConvDispatch).
bool conv1d_uses_gemm(std::size_t n, std::size_t cin, std::size_t cout,
                      std::size_t k, std::size_t t_out);
/// The same dispatch for a conv1d backward, always on the true N (ignores
/// SingleWindowConvDispatch): what the tape closure evaluates when it runs.
bool conv1d_backward_uses_gemm(std::size_t n, std::size_t cin,
                               std::size_t cout, std::size_t k,
                               std::size_t t_out);
void conv1d_forward_gemm_raw(const float* x, const float* w, const float* b,
                             std::size_t n, std::size_t cin, std::size_t t_in,
                             std::size_t cout, std::size_t k, std::size_t d,
                             std::size_t pad, std::size_t t_out, float* y);
void conv1d_dx_direct_raw(const float* dy, const float* w, std::size_t n,
                          std::size_t cin, std::size_t t_in, std::size_t cout,
                          std::size_t k, std::size_t d, std::size_t pad,
                          std::size_t t_out, float* dx);
void conv1d_dx_gemm_raw(const float* dy, const float* w, std::size_t n,
                        std::size_t cin, std::size_t t_in, std::size_t cout,
                        std::size_t k, std::size_t d, std::size_t pad,
                        std::size_t t_out, float* dx);
void conv1d_dw_direct_raw(const float* dy, const float* x, std::size_t n,
                          std::size_t cin, std::size_t t_in, std::size_t cout,
                          std::size_t k, std::size_t d, std::size_t pad,
                          std::size_t t_out, float* dw);
void conv1d_dw_gemm_raw(const float* dy, const float* x, std::size_t n,
                        std::size_t cin, std::size_t t_in, std::size_t cout,
                        std::size_t k, std::size_t d, std::size_t pad,
                        std::size_t t_out, float* dw);
/// db[co] += per-(sample, channel) double row-sums of dy, in (n, co) order.
void conv1d_db_raw(const float* dy, std::size_t n, std::size_t cout,
                   std::size_t t_out, float* db);

// -- single-chunk prepatched conv1d GEMM kernels ------------------------------
// The chunked GEMM kernels above each rebuild their own patch matrix
// (forward, dW) and dy gather (dX, dW) from x/dy on every call. When the
// whole batch fits one im2col chunk, those intermediates are pure functions
// of x and dy with layouts that do not depend on the consumer — so a planned
// program can materialise each ONCE per step and feed all three GEMMs. The
// kernels below are the single-chunk bodies of the *_raw kernels with the
// rebuild hoisted out: same fills, same gemm_accumulate calls with identical
// operand layouts, same scatter order — bit-identical by construction.
// Callers must check conv1d_gemm_single_chunk first; the prepatched kernels
// assume nt = n * t_out.

/// True when conv1d_chunk covers the whole batch in one chunk, i.e. the
/// chunked kernels would run exactly one (im2col, GEMM) round.
bool conv1d_gemm_single_chunk(std::size_t n, std::size_t cin, std::size_t k,
                              std::size_t t_out);
/// patches[(ci*K+kk), s*T_out+t] = x[s,ci,t+kk*d-pad] for the whole batch.
void conv1d_im2col_full(const float* x, std::size_t n, std::size_t cin,
                        std::size_t t_in, std::size_t k, std::size_t d,
                        std::size_t pad, std::size_t t_out, float* patches);
/// dyg[co, s*T_out+t] = dy[s,co,t] for the whole batch.
void conv1d_gather_dy_full(const float* dy, std::size_t n, std::size_t cout,
                           std::size_t t_out, float* dyg);
/// Forward from a prebuilt patch matrix: bias fill, one GEMM, scatter to y.
void conv1d_forward_gemm_prepatched(const float* patches, const float* w,
                                    const float* b, std::size_t n,
                                    std::size_t cin, std::size_t cout,
                                    std::size_t k, std::size_t t_out, float* y);
/// dX from a pregathered dy: Wᵀ·dY into a column buffer, then col2im adds
/// into dx (caller zero-fills dx, as with conv1d_dx_gemm_raw).
void conv1d_dx_gemm_pregathered(const float* dyg, const float* w,
                                std::size_t n, std::size_t cin,
                                std::size_t t_in, std::size_t cout,
                                std::size_t k, std::size_t d, std::size_t pad,
                                std::size_t t_out, float* dx);
/// dW from pregathered dy and prebuilt patches: one GEMM accumulating into
/// dw (caller zero-fills, as with conv1d_dw_gemm_raw).
void conv1d_dw_gemm_prepatched(const float* dyg, const float* patches,
                               std::size_t n, std::size_t cin,
                               std::size_t cout, std::size_t k,
                               std::size_t t_out, float* dw);

}  // namespace fwd

// -- reductions & losses ------------------------------------------------------------------
Variable sum_all(const Variable& a);   // -> [1]
Variable mean_all(const Variable& a);  // -> [1]
/// Mean squared error against a constant target (eq. 9).
Variable mse_loss(const Variable& pred, const Tensor& target);
/// Mean absolute error against a constant target (eq. 10).
Variable mae_loss(const Variable& pred, const Tensor& target);
/// Mean pinball (quantile) loss at level tau in (0,1): training with it
/// yields the tau-quantile forecast — used by the capacity-planning
/// extension to reserve to a high percentile instead of the mean.
Variable pinball_loss(const Variable& pred, const Tensor& target, float tau);

}  // namespace rptcn::ag
