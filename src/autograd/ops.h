// Differentiable operations on Variables.
//
// Conventions:
//  * Batched 2-D activations are [N, F]; temporal activations are [N, C, T]
//    (batch, channels, time), matching the paper's Conv1d formulation.
//  * Linear weights are [out, in]; Conv1d weights are [Cout, Cin, K].
//  * Ops validate shapes with RPTCN_CHECK and build backward closures only
//    when gradients are enabled and some input requires them.
//  * Every op that the tape compiler can replay is a thin wrapper over its
//    op-table entry (autograd/op_table.h): the entry's kernels compute the
//    forward value and each operand's gradient, here and in compiled
//    programs alike. sub, matmul, add_scalar, mul_scalar, neg, reshape,
//    sum_all and mean_all are untraced helpers with their own closures.
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
/// causal-padding-aware im2col patch matrix, for every shape. Each output's
/// summation order is fixed by the GEMM (tensor/tensor_ops.h), so each row
/// of a batched forward is bit-identical to its window's N=1 forward.
Variable conv1d(const Variable& x, const Variable& w, const Variable& b,
                std::size_t dilation = 1, std::ptrdiff_t left_pad = -1);

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

// -- tape-free entry points ------------------------------------------------------
namespace fwd {

/// Dilated causal Conv1d forward on plain tensors: the conv1d op-table entry
/// without a tape node (same contract as ag::conv1d).
Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor* b,
              std::size_t dilation = 1, std::ptrdiff_t left_pad = -1);

/// Causal-padding-aware im2col over nc samples with explicit input strides:
/// patches[(ci*K + kk), s*T_out + t] = x[s*xs + ci*xc + (t + kk*d - pad)],
/// zero outside [0, T_in). xs/xc express the input layout — sample-major
/// [N,C,T] uses (C*T_in, T_in); a channel-major [C, N*T_in] layout uses
/// (T_in, N*T_in).
void im2col_strided(const float* x, std::size_t xs, std::size_t xc,
                    std::size_t nc, std::size_t cin, std::size_t t_in,
                    std::size_t k, std::size_t d, std::size_t pad,
                    std::size_t t_out, float* patches);

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
