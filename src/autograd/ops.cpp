#include "autograd/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "autograd/trace.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "tensor/buffer_pool.h"
#include "tensor/dispatch.h"
#include "tensor/tensor_ops.h"

namespace rptcn::ag {

namespace {

using autograd::Node;
using NodePtr = std::shared_ptr<Node>;

/// Build a graph node. If gradients are globally disabled or no parent
/// requires them, the result is a detached leaf and `make_backward` is not
/// invoked (saved tensors for backward are never captured).
template <typename MakeBackward>
Variable make_node(Tensor value, std::vector<Variable> parents,
                   const char* op_name, MakeBackward&& make_backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op = op_name;
  bool needs_grad = false;
  if (autograd::grad_enabled()) {
    for (const auto& p : parents)
      if (p.defined() && p.requires_grad()) needs_grad = true;
  }
  if (needs_grad) {
    node->requires_grad = true;
    for (const auto& p : parents)
      if (p.defined()) node->parents.push_back(p.node());
    node->backward_fn = make_backward();
  }
  return Variable(std::move(node));
}

void check_defined(const Variable& v, const char* op) {
  RPTCN_CHECK(v.defined(), op << ": undefined operand");
}

/// Pass-through that appends a trace record when a trace::Recording is
/// active. Operand slots are positional; undefined operands (e.g. a missing
/// bias) leave their slot null.
Variable rec(trace::OpKind kind, Variable result,
             std::initializer_list<const Variable*> ins, std::size_t a = 0,
             std::size_t b = 0, float scalar = 0.0f) {
  if (trace::active()) {
    trace::OpRecord r;
    r.kind = kind;
    r.result = result.node();
    std::size_t slot = 0;
    for (const Variable* v : ins) {
      if (v != nullptr && v->defined()) r.in[slot] = v->node();
      ++slot;
    }
    r.a = a;
    r.b = b;
    r.scalar = scalar;
    trace::record(std::move(r));
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// arithmetic
// ---------------------------------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  check_defined(a, "add");
  check_defined(b, "add");
  Tensor out = rptcn::add(a.value(), b.value());
  return rec(trace::OpKind::kAdd,
             make_node(std::move(out), {a, b}, "add",
                       [a, b] {
                         return [an = a.node(), bn = b.node()](Node& self) {
                           if (an->requires_grad) an->accumulate(self.grad);
                           if (bn->requires_grad) bn->accumulate(self.grad);
                         };
                       }),
             {&a, &b});
}

Variable sub(const Variable& a, const Variable& b) {
  check_defined(a, "sub");
  check_defined(b, "sub");
  Tensor out = rptcn::sub(a.value(), b.value());
  return make_node(std::move(out), {a, b}, "sub", [a, b] {
    return [an = a.node(), bn = b.node()](Node& self) {
      if (an->requires_grad) an->accumulate(self.grad);
      if (bn->requires_grad) bn->accumulate(rptcn::neg(self.grad));
    };
  });
}

Variable mul(const Variable& a, const Variable& b) {
  check_defined(a, "mul");
  check_defined(b, "mul");
  Tensor out = rptcn::mul(a.value(), b.value());
  return rec(
      trace::OpKind::kMul,
      make_node(std::move(out), {a, b}, "mul",
                [a, b] {
                  return [an = a.node(), bn = b.node()](Node& self) {
                    if (an->requires_grad)
                      an->accumulate(rptcn::mul(self.grad, bn->value));
                    if (bn->requires_grad)
                      bn->accumulate(rptcn::mul(self.grad, an->value));
                  };
                }),
      {&a, &b});
}

Variable add_scalar(const Variable& a, float s) {
  check_defined(a, "add_scalar");
  Tensor out = rptcn::add_scalar(a.value(), s);
  return make_node(std::move(out), {a}, "add_scalar", [a] {
    return [an = a.node()](Node& self) { an->accumulate(self.grad); };
  });
}

Variable mul_scalar(const Variable& a, float s) {
  check_defined(a, "mul_scalar");
  Tensor out = rptcn::mul_scalar(a.value(), s);
  return make_node(std::move(out), {a}, "mul_scalar", [a, s] {
    return [an = a.node(), s](Node& self) {
      an->accumulate(rptcn::mul_scalar(self.grad, s));
    };
  });
}

Variable neg(const Variable& a) { return mul_scalar(a, -1.0f); }

// ---------------------------------------------------------------------------
// linear algebra
// ---------------------------------------------------------------------------

Variable matmul(const Variable& a, const Variable& b) {
  check_defined(a, "matmul");
  check_defined(b, "matmul");
  Tensor out = rptcn::matmul(a.value(), b.value());
  return make_node(std::move(out), {a, b}, "matmul", [a, b] {
    return [an = a.node(), bn = b.node()](Node& self) {
      // dA = dC * B^T; dB = A^T * dC.
      if (an->requires_grad)
        an->accumulate(rptcn::matmul_nt(self.grad, bn->value));
      if (bn->requires_grad)
        bn->accumulate(rptcn::matmul_tn(an->value, self.grad));
    };
  });
}

Variable linear(const Variable& x, const Variable& w, const Variable& b) {
  check_defined(x, "linear");
  check_defined(w, "linear");
  Tensor out =
      fwd::linear(x.value(), w.value(), b.defined() ? &b.value() : nullptr);
  return rec(trace::OpKind::kLinear,
             make_node(std::move(out), {x, w, b}, "linear", [x, w, b] {
    return [xn = x.node(), wn = w.node(),
            bn = b.defined() ? b.node() : nullptr](Node& self) {
      // y = x w^T + b: dx = dy w; dw = dy^T x; db = colsum(dy).
      if (xn->requires_grad)
        xn->accumulate(rptcn::matmul(self.grad, wn->value));
      if (wn->requires_grad)
        wn->accumulate(rptcn::matmul_tn(self.grad, xn->value));
      if (bn && bn->requires_grad)
        bn->accumulate(rptcn::sum_cols(self.grad));
    };
  }),
             {&x, &w, &b});
}

// ---------------------------------------------------------------------------
// activations
// ---------------------------------------------------------------------------

Variable relu(const Variable& a) {
  check_defined(a, "relu");
  Tensor out = rptcn::relu(a.value());
  return rec(trace::OpKind::kRelu,
             make_node(std::move(out), {a}, "relu",
                       [a] {
                         return [an = a.node()](Node& self) {
                           Tensor g = self.grad;
                           const auto pv = an->value.data();
                           auto pg = g.data();
                           for (std::size_t i = 0; i < pg.size(); ++i)
                             if (pv[i] <= 0.0f) pg[i] = 0.0f;
                           an->accumulate(g);
                         };
                       }),
             {&a});
}

Variable sigmoid(const Variable& a) {
  check_defined(a, "sigmoid");
  Tensor out = rptcn::sigmoid(a.value());
  return rec(trace::OpKind::kSigmoid,
             make_node(std::move(out), {a}, "sigmoid",
                       [a] {
                         return [an = a.node()](Node& self) {
                           // dx = dy * s * (1 - s), s the forward output.
                           Tensor g = self.grad;
                           const auto ps = self.value.data();
                           auto pg = g.data();
                           for (std::size_t i = 0; i < pg.size(); ++i)
                             pg[i] *= ps[i] * (1.0f - ps[i]);
                           an->accumulate(g);
                         };
                       }),
             {&a});
}

Variable tanh_v(const Variable& a) {
  check_defined(a, "tanh");
  Tensor out = rptcn::tanh_t(a.value());
  return rec(trace::OpKind::kTanh,
             make_node(std::move(out), {a}, "tanh",
                       [a] {
                         return [an = a.node()](Node& self) {
                           Tensor g = self.grad;
                           const auto ps = self.value.data();
                           auto pg = g.data();
                           for (std::size_t i = 0; i < pg.size(); ++i)
                             pg[i] *= 1.0f - ps[i] * ps[i];
                           an->accumulate(g);
                         };
                       }),
             {&a});
}

// ---------------------------------------------------------------------------
// shape
// ---------------------------------------------------------------------------

Variable reshape(const Variable& a, std::vector<std::size_t> shape) {
  check_defined(a, "reshape");
  Tensor out = a.value().reshape(shape);
  return make_node(std::move(out), {a}, "reshape", [a] {
    return [an = a.node()](Node& self) {
      an->accumulate(self.grad.reshape(an->value.shape()));
    };
  });
}

// ---------------------------------------------------------------------------
// dilated causal convolution (paper eqs. 3 and 4)
//
// Two kernel paths compute the same convolution:
//  * direct — the original per-(sample, channel) offset loops; wins on tiny
//    shapes where patch traffic would dominate.
//  * im2col+GEMM — forward, dX and dW lowered onto the packed blocked GEMM
//    (tensor_ops gemm_accumulate). Samples are batched into one patch
//    matrix patches[Cin*K, n_chunk*T_out] so the GEMM sees wide panels:
//      forward: Y = W[Cout, Cin*K] × patches            (+ bias prefill)
//      dW     : dW += dY × patchesᵀ                      (trans_b)
//      dX     : cols = Wᵀ × dY, then col2im scatter-add  (trans_a)
//    Scratch (patches, gathered dY, per-chunk Y) lives in the thread-local
//    buffer pool, so steady-state training reuses the same few buffers.
// Dispatch is shape-only (never data-dependent); see Conv1dImpl in ops.h.
// ---------------------------------------------------------------------------

namespace {

std::atomic<Conv1dImpl>& conv1d_impl_flag() {
  static std::atomic<Conv1dImpl> impl{Conv1dImpl::kAuto};
  return impl;
}

// Below this many fused multiply-adds the direct loops win (patch build +
// pack overhead dominate the GEMM). Calibrated with bench/micro_kernels.
constexpr std::size_t kConv1dGemmMinFlops = 1u << 14;
// Patch-matrix cap: chunk the batch so im2col scratch stays cache-friendly
// and bounded (~8 MiB) for any batch size.
constexpr std::size_t kConv1dChunkFloats = 1u << 21;

/// Whether a SingleWindowConvDispatch scope is alive on this thread.
thread_local bool t_single_window_conv = false;

bool conv1d_above_gemm_cutoff(std::size_t n, std::size_t cin,
                              std::size_t cout, std::size_t k,
                              std::size_t t_out) {
  return 2 * n * cout * cin * k * t_out >= kConv1dGemmMinFlops;
}

bool conv1d_use_gemm(std::size_t n, std::size_t cin, std::size_t cout,
                     std::size_t k, std::size_t t_out) {
  switch (conv1d_impl_flag().load(std::memory_order_relaxed)) {
    case Conv1dImpl::kDirect:
      return false;
    case Conv1dImpl::kIm2col:
      return true;
    case Conv1dImpl::kAuto:
    default:
      return conv1d_above_gemm_cutoff(n, cin, cout, k, t_out);
  }
}

struct Conv1dMetrics {
  obs::Counter& gemm_calls =
      obs::metrics().counter("kernel/conv1d_gemm_calls");
  obs::Counter& direct_calls =
      obs::metrics().counter("kernel/conv1d_direct_calls");
};

Conv1dMetrics& conv1d_metrics() {
  static Conv1dMetrics* m = new Conv1dMetrics();
  return *m;
}

/// Valid output range [t_lo, t_hi) for tap offset off = kk*d - pad, i.e. the
/// t with 0 <= t + off < t_in.
inline void tap_range(std::ptrdiff_t off, std::size_t t_in, std::size_t t_out,
                      std::size_t& t_lo, std::size_t& t_hi) {
  // Clamp both ends to [0, t_out]: with pad > T_in a tap can sit entirely in
  // the zero padding (t_lo would exceed t_out), which must yield an empty
  // range, not an out-of-bounds fill in the im2col writer.
  t_lo = off < 0 ? std::min(static_cast<std::size_t>(-off), t_out) : 0u;
  const std::ptrdiff_t hi =
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(t_out),
                               static_cast<std::ptrdiff_t>(t_in) - off);
  t_hi = hi > static_cast<std::ptrdiff_t>(t_lo)
             ? static_cast<std::size_t>(hi)
             : t_lo;
}

/// y[n,co,t] = b[co] + sum_{ci,k} w[co,ci,k] * x[n,ci,t + k*d - P]
/// (indices outside [0,T) read as zero — left padding).
Tensor conv1d_forward_direct(const Tensor& x, const Tensor& w, const Tensor* b,
                             std::size_t d, std::size_t pad,
                             std::size_t t_out) {
  const std::size_t n = x.dim(0), cin = x.dim(1), t_in = x.dim(2);
  const std::size_t cout = w.dim(0), k = w.dim(2);
  Tensor y({n, cout, t_out});
  fwd::conv1d_direct_strided(x.raw(), cin * t_in, t_in, w.raw(),
                             b != nullptr ? b->raw() : nullptr, n, cin, t_in,
                             cout, k, d, pad, t_out, y.raw(), cout * t_out,
                             t_out);
  return y;
}

/// dx[n,ci,t+off] += w[co,ci,k] * dy[n,co,t] — transpose of the forward.
void conv1d_dx_direct(const Tensor& dy, const Tensor& w, Tensor& dx,
                      std::size_t d, std::size_t pad) {
  fwd::conv1d_dx_direct_raw(dy.raw(), w.raw(), dx.dim(0), dx.dim(1),
                            dx.dim(2), w.dim(0), w.dim(2), d, pad, dy.dim(2),
                            dx.raw());
}

/// dw[co,ci,k] += sum_{n,t} dy[n,co,t] * x[n,ci,t+off].
void conv1d_dw_direct(const Tensor& dy, const Tensor& x, Tensor& dw,
                      std::size_t d, std::size_t pad) {
  fwd::conv1d_dw_direct_raw(dy.raw(), x.raw(), x.dim(0), x.dim(1), x.dim(2),
                            dw.dim(0), dw.dim(2), d, pad, dy.dim(2), dw.raw());
}

/// Number of samples per im2col chunk for a given patch-row length.
std::size_t conv1d_chunk(std::size_t n, std::size_t ck, std::size_t t_out) {
  const std::size_t per_sample = std::max<std::size_t>(1, ck * t_out);
  return std::min(n, std::max<std::size_t>(1, kConv1dChunkFloats / per_sample));
}

/// Causal-padding-aware im2col over a chunk of nc sample-major samples:
/// patches[(ci*K + kk), s*T_out + t] = x[s, ci, t + kk*d - pad], zero
/// outside [0, T_in). Thin wrapper over the strided writer with the
/// sample-major [N,Cin,T] strides.
void im2col_chunk(const float* x, std::size_t nc, std::size_t cin,
                  std::size_t t_in, std::size_t k, std::size_t d,
                  std::size_t pad, std::size_t t_out, float* patches) {
  fwd::im2col_strided(x, cin * t_in, t_in, nc, cin, t_in, k, d, pad, t_out,
                      patches);
}

/// Transpose of im2col_chunk: dx[s, ci, t + kk*d - pad] += cols[row, s, t].
/// Rows are scattered in fixed (ci, kk, s, t) order — deterministic.
void col2im_chunk_add(const float* cols, std::size_t nc, std::size_t cin,
                      std::size_t t_in, std::size_t k, std::size_t d,
                      std::size_t pad, std::size_t t_out, float* dx) {
  const std::size_t nt = nc * t_out;
  for (std::size_t ci = 0; ci < cin; ++ci) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* row = cols + (ci * k + kk) * nt;
      const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk * d) -
                                 static_cast<std::ptrdiff_t>(pad);
      std::size_t t_lo, t_hi;
      tap_range(off, t_in, t_out, t_lo, t_hi);
      for (std::size_t s = 0; s < nc; ++s) {
        const float* seg = row + s * t_out;
        float* dxrow = dx + (s * cin + ci) * t_in;
        for (std::size_t t = t_lo; t < t_hi; ++t)
          dxrow[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(t) +
                                         off)] += seg[t];
      }
    }
  }
}

/// Gather dy[n0+s, co, t] into the chunk layout dyg[co, s*T_out + t]
/// (contiguous row copies).
void gather_dy_chunk(const float* dy, std::size_t cout, std::size_t t_out,
                     std::size_t n0, std::size_t nc, float* dyg) {
  const std::size_t nt = nc * t_out;
  for (std::size_t s = 0; s < nc; ++s)
    for (std::size_t co = 0; co < cout; ++co)
      std::copy_n(dy + ((n0 + s) * cout + co) * t_out, t_out,
                  dyg + co * nt + s * t_out);
}

Tensor conv1d_forward_gemm(const Tensor& x, const Tensor& w, const Tensor* b,
                           std::size_t d, std::size_t pad, std::size_t t_out) {
  const std::size_t n = x.dim(0), cin = x.dim(1), t_in = x.dim(2);
  const std::size_t cout = w.dim(0), k = w.dim(2);
  Tensor y({n, cout, t_out});
  fwd::conv1d_forward_gemm_raw(x.raw(), w.raw(),
                               b != nullptr ? b->raw() : nullptr, n, cin, t_in,
                               cout, k, d, pad, t_out, y.raw());
  return y;
}

void conv1d_dx_gemm(const Tensor& dy, const Tensor& w, Tensor& dx,
                    std::size_t d, std::size_t pad) {
  fwd::conv1d_dx_gemm_raw(dy.raw(), w.raw(), dx.dim(0), dx.dim(1), dx.dim(2),
                          w.dim(0), w.dim(2), d, pad, dy.dim(2), dx.raw());
}

void conv1d_dw_gemm(const Tensor& dy, const Tensor& x, Tensor& dw,
                    std::size_t d, std::size_t pad) {
  fwd::conv1d_dw_gemm_raw(dy.raw(), x.raw(), x.dim(0), x.dim(1), x.dim(2),
                          dw.dim(0), dw.dim(2), d, pad, dy.dim(2), dw.raw());
}

/// Shared weight-norm forward. `norms_out`, when non-null, receives the
/// per-channel L2 norms the backward closure reuses.
Tensor weight_norm_forward(const Tensor& v, const Tensor& g,
                           std::vector<float>* norms_out) {
  RPTCN_CHECK(v.rank() >= 2, "weight_norm expects rank >= 2");
  const std::size_t cout = v.dim(0);
  RPTCN_CHECK(g.rank() == 1 && g.dim(0) == cout,
              "weight_norm gain must be [Cout]");
  const std::size_t row = v.size() / cout;

  Tensor out(v.shape());
  if (norms_out != nullptr) norms_out->resize(cout);
  const float* pv = v.raw();
  float* po = out.raw();
  for (std::size_t c = 0; c < cout; ++c) {
    double s = 0.0;
    for (std::size_t i = 0; i < row; ++i) {
      const float vv = pv[c * row + i];
      s += static_cast<double>(vv) * vv;
    }
    const float nrm = static_cast<float>(std::sqrt(std::max(s, 1e-24)));
    if (norms_out != nullptr) (*norms_out)[c] = nrm;
    const float scale = g.at(c) / nrm;
    for (std::size_t i = 0; i < row; ++i) po[c * row + i] = pv[c * row + i] * scale;
  }
  return out;
}

}  // namespace

namespace fwd {

Tensor conv1d(const Tensor& x, const Tensor& w, const Tensor* b,
              std::size_t dilation, std::ptrdiff_t left_pad) {
  RPTCN_CHECK(x.rank() == 3,
              "conv1d input must be [N,Cin,T], got " << x.shape_string());
  RPTCN_CHECK(w.rank() == 3,
              "conv1d weight must be [Cout,Cin,K], got " << w.shape_string());
  RPTCN_CHECK(x.dim(1) == w.dim(1), "conv1d channel mismatch: x "
                                        << x.shape_string() << ", w "
                                        << w.shape_string());
  RPTCN_CHECK(dilation >= 1, "conv1d dilation must be >= 1");
  const std::size_t k = w.dim(2);
  const std::size_t pad = left_pad < 0 ? (k - 1) * dilation
                                       : static_cast<std::size_t>(left_pad);
  if (b != nullptr)
    RPTCN_CHECK(b->rank() == 1 && b->dim(0) == w.dim(0),
                "conv1d bias must be [Cout]");
  const std::size_t k_reach = (k - 1) * dilation;
  const std::size_t t_in = x.dim(2);
  RPTCN_CHECK(t_in + pad >= k_reach,
              "conv1d: input too short for kernel reach " << k_reach);
  const std::size_t t_out = t_in + pad - k_reach;
  const bool use_gemm = conv1d_uses_gemm(x.dim(0), x.dim(1), w.dim(0), k,
                                         t_out);
  if (obs::enabled())
    (use_gemm ? conv1d_metrics().gemm_calls : conv1d_metrics().direct_calls)
        .add(1);
  return use_gemm ? conv1d_forward_gemm(x, w, b, dilation, pad, t_out)
                  : conv1d_forward_direct(x, w, b, dilation, pad, t_out);
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor* b) {
  RPTCN_CHECK(x.rank() == 2 && w.rank() == 2, "linear expects x[N,F], w[O,F]");
  RPTCN_CHECK(x.dim(1) == w.dim(1), "linear feature mismatch: x "
                                        << x.shape_string() << ", w "
                                        << w.shape_string());
  const std::size_t n = x.dim(0), out_f = w.dim(0);
  Tensor out = rptcn::matmul_nt(x, w);  // [N,O]
  if (b != nullptr) {
    RPTCN_CHECK(b->rank() == 1 && b->dim(0) == out_f,
                "linear bias shape mismatch");
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < out_f; ++j) out.at(i, j) += b->at(j);
  }
  return out;
}

Tensor weight_norm(const Tensor& v, const Tensor& g) {
  return weight_norm_forward(v, g, nullptr);
}

Tensor mul_bcast_channel(const Tensor& a, const Tensor& z) {
  RPTCN_CHECK(a.rank() == 3 && a.dim(1) == 1,
              "attention weights must be [N,1,T], got " << a.shape_string());
  RPTCN_CHECK(z.rank() == 3, "features must be [N,C,T]");
  RPTCN_CHECK(a.dim(0) == z.dim(0) && a.dim(2) == z.dim(2),
              "mul_bcast_channel shape mismatch: " << a.shape_string() << " vs "
                                                   << z.shape_string());
  const std::size_t n = z.dim(0), c = z.dim(1), t = z.dim(2);
  Tensor out({n, c, t});
  for (std::size_t ni = 0; ni < n; ++ni) {
    const float* arow = a.raw() + ni * t;
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* zrow = z.raw() + (ni * c + ci) * t;
      float* orow = out.raw() + (ni * c + ci) * t;
      for (std::size_t ti = 0; ti < t; ++ti) orow[ti] = arow[ti] * zrow[ti];
    }
  }
  return out;
}

Tensor sum_lastdim(const Tensor& a) {
  RPTCN_CHECK(a.rank() == 3, "sum_lastdim expects [N,C,T]");
  const std::size_t n = a.dim(0), c = a.dim(1), t = a.dim(2);
  Tensor out({n, c});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* row = a.raw() + (ni * c + ci) * t;
      double s = 0.0;
      for (std::size_t ti = 0; ti < t; ++ti) s += row[ti];
      out.at(ni, ci) = static_cast<float>(s);
    }
  return out;
}

Tensor time_slice(const Tensor& x, std::size_t t) {
  RPTCN_CHECK(x.rank() == 3, "time_slice expects [N,C,T]");
  const std::size_t n = x.dim(0), c = x.dim(1), tt = x.dim(2);
  RPTCN_CHECK(t < tt, "time_slice index " << t << " out of T=" << tt);
  Tensor out({n, c});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci)
      out.at(ni, ci) = x.at(ni, ci, t);
  return out;
}

Tensor time_reverse(const Tensor& x) {
  RPTCN_CHECK(x.rank() == 3, "time_reverse expects [N,C,T]");
  const std::size_t n = x.dim(0), c = x.dim(1), t = x.dim(2);
  Tensor out({n, c, t});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* src = x.raw() + (ni * c + ci) * t;
      float* dst = out.raw() + (ni * c + ci) * t;
      for (std::size_t ti = 0; ti < t; ++ti) dst[ti] = src[t - 1 - ti];
    }
  return out;
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  RPTCN_CHECK(a.rank() == 2 && b.rank() == 2,
              "concat_cols expects rank-2 operands");
  RPTCN_CHECK(a.dim(0) == b.dim(0), "concat_cols batch mismatch");
  const std::size_t n = a.dim(0), fa = a.dim(1), fb = b.dim(1);
  Tensor out({n, fa + fb});
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(a.raw() + i * fa, fa, out.raw() + i * (fa + fb));
    std::copy_n(b.raw() + i * fb, fb, out.raw() + i * (fa + fb) + fa);
  }
  return out;
}

Tensor slice_cols(const Tensor& x, std::size_t start, std::size_t count) {
  RPTCN_CHECK(x.rank() == 2,
              "slice_cols expects rank-2 input, got " << x.shape_string());
  const std::size_t n = x.dim(0), f = x.dim(1);
  RPTCN_CHECK(count > 0 && start + count <= f,
              "slice_cols [" << start << ", " << (start + count)
                             << ") out of range for " << f << " columns");
  Tensor out({n, count});
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(x.raw() + i * f + start, count, out.raw() + i * count);
  return out;
}

void im2col_strided(const float* x, std::size_t xs, std::size_t xc,
                    std::size_t nc, std::size_t cin, std::size_t t_in,
                    std::size_t k, std::size_t d, std::size_t pad,
                    std::size_t t_out, float* patches) {
  // Dispatched patch writer (tensor/dispatch.h). Pure data movement, so
  // every tier is exact; the body lives in tensor/kernels_detail.h.
  kernels().im2col(x, xs, xc, nc, cin, t_in, k, d, pad, t_out, patches);
}

void conv1d_direct_strided(const float* x, std::size_t xs, std::size_t xc,
                           const float* w, const float* b, std::size_t n,
                           std::size_t cin, std::size_t t_in, std::size_t cout,
                           std::size_t k, std::size_t d, std::size_t pad,
                           std::size_t t_out, float* y, std::size_t ys,
                           std::size_t yc) {
  // Fork across windows only when one window alone reaches the GEMM flop
  // cutoff. Smaller windows reach this kernel batched only under a pin
  // (SingleWindowConvDispatch, Conv1dImpl::kDirect), and per window they
  // cost less than the fork.
  const bool fork = n * cout > 1 &&
                    conv1d_above_gemm_cutoff(1, cin, cout, k, t_out) &&
                    kernel_parallelism_allowed();
#pragma omp parallel for collapse(2) schedule(static) if (fork)
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t co = 0; co < cout; ++co) {
      float* yrow = y + ni * ys + co * yc;
      // Unconditional prefill: arena rows (unlike fresh Tensors) are not
      // zero-initialised, and rewriting zeros on the eager path is free.
      const float bias = b != nullptr ? b[co] : 0.0f;
      for (std::size_t t = 0; t < t_out; ++t) yrow[t] = bias;
      for (std::size_t ci = 0; ci < cin; ++ci) {
        const float* xrow = x + ni * xs + ci * xc;
        const float* wrow = w + (co * cin + ci) * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float wv = wrow[kk];
          if (wv == 0.0f) continue;
          // input offset of x relative to output index t
          const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk * d) -
                                     static_cast<std::ptrdiff_t>(pad);
          std::size_t t_lo, t_hi;
          tap_range(off, t_in, t_out, t_lo, t_hi);
          // Unit-stride rows from t_lo on: the same per-element mul + add,
          // in a form the compiler vectorises.
          const float* src = xrow + (static_cast<std::ptrdiff_t>(t_lo) + off);
          float* dst = yrow + t_lo;
          for (std::size_t i = 0; i < t_hi - t_lo; ++i) dst[i] += wv * src[i];
        }
      }
    }
  }
}

bool conv1d_uses_gemm(std::size_t n, std::size_t cin, std::size_t cout,
                      std::size_t k, std::size_t t_out) {
  return conv1d_use_gemm(t_single_window_conv ? 1 : n, cin, cout, k, t_out);
}

bool conv1d_backward_uses_gemm(std::size_t n, std::size_t cin,
                               std::size_t cout, std::size_t k,
                               std::size_t t_out) {
  return conv1d_use_gemm(n, cin, cout, k, t_out);
}

void conv1d_forward_gemm_raw(const float* x, const float* w, const float* b,
                             std::size_t n, std::size_t cin, std::size_t t_in,
                             std::size_t cout, std::size_t k, std::size_t d,
                             std::size_t pad, std::size_t t_out, float* y) {
  const std::size_t ck = cin * k;
  const std::size_t chunk = conv1d_chunk(n, ck, t_out);
  pool::Scratch patches(ck * chunk * t_out);
  pool::Scratch ybuf(cout * chunk * t_out);
  for (std::size_t n0 = 0; n0 < n; n0 += chunk) {
    const std::size_t nc = std::min(chunk, n - n0);
    const std::size_t nt = nc * t_out;
    im2col_chunk(x + n0 * cin * t_in, nc, cin, t_in, k, d, pad, t_out,
                 patches.data());
    if (b != nullptr) {
      for (std::size_t co = 0; co < cout; ++co)
        std::fill_n(ybuf.data() + co * nt, nt, b[co]);
    } else {
      std::fill_n(ybuf.data(), cout * nt, 0.0f);
    }
    // Y[co, s·T+t] += W2[co, ci·K+kk] · patches[ci·K+kk, s·T+t]
    gemm_accumulate(cout, nt, ck, w, ck, false, patches.data(), nt, false,
                    ybuf.data());
    for (std::size_t s = 0; s < nc; ++s)
      for (std::size_t co = 0; co < cout; ++co)
        std::copy_n(ybuf.data() + co * nt + s * t_out, t_out,
                    y + ((n0 + s) * cout + co) * t_out);
  }
}

void conv1d_dx_direct_raw(const float* dy, const float* w, std::size_t n,
                          std::size_t cin, std::size_t t_in, std::size_t cout,
                          std::size_t k, std::size_t d, std::size_t pad,
                          std::size_t t_out, float* dx) {
#pragma omp parallel for schedule(static) if (n > 1 && kernel_parallelism_allowed())
  for (std::size_t ni = 0; ni < n; ++ni) {
    for (std::size_t co = 0; co < cout; ++co) {
      const float* gyrow = dy + (ni * cout + co) * t_out;
      for (std::size_t ci = 0; ci < cin; ++ci) {
        float* dxrow = dx + (ni * cin + ci) * t_in;
        const float* wrow = w + (co * cin + ci) * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float wv = wrow[kk];
          if (wv == 0.0f) continue;
          const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk * d) -
                                     static_cast<std::ptrdiff_t>(pad);
          std::size_t t_lo, t_hi;
          tap_range(off, t_in, t_out, t_lo, t_hi);
          for (std::size_t t = t_lo; t < t_hi; ++t)
            dxrow[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(t) +
                                           off)] += wv * gyrow[t];
        }
      }
    }
  }
}

void conv1d_dx_gemm_raw(const float* dy, const float* w, std::size_t n,
                        std::size_t cin, std::size_t t_in, std::size_t cout,
                        std::size_t k, std::size_t d, std::size_t pad,
                        std::size_t t_out, float* dx) {
  const std::size_t ck = cin * k;
  const std::size_t chunk = conv1d_chunk(n, ck, t_out);
  pool::Scratch cols(ck * chunk * t_out);
  pool::Scratch dyg(cout * chunk * t_out);
  for (std::size_t n0 = 0; n0 < n; n0 += chunk) {
    const std::size_t nc = std::min(chunk, n - n0);
    const std::size_t nt = nc * t_out;
    gather_dy_chunk(dy, cout, t_out, n0, nc, dyg.data());
    std::fill_n(cols.data(), ck * nt, 0.0f);
    // cols[ci·K+kk, s·T+t] += W2ᵀ[ci·K+kk, co] · dY[co, s·T+t]
    gemm_accumulate(ck, nt, cout, w, ck, true, dyg.data(), nt, false,
                    cols.data());
    col2im_chunk_add(cols.data(), nc, cin, t_in, k, d, pad, t_out,
                     dx + n0 * cin * t_in);
  }
}

void conv1d_dw_direct_raw(const float* dy, const float* x, std::size_t n,
                          std::size_t cin, std::size_t t_in, std::size_t cout,
                          std::size_t k, std::size_t d, std::size_t pad,
                          std::size_t t_out, float* dw) {
#pragma omp parallel for schedule(static) if (cout > 1 && kernel_parallelism_allowed())
  for (std::size_t co = 0; co < cout; ++co) {
    for (std::size_t ni = 0; ni < n; ++ni) {
      const float* gyrow = dy + (ni * cout + co) * t_out;
      for (std::size_t ci = 0; ci < cin; ++ci) {
        const float* xrow = x + (ni * cin + ci) * t_in;
        float* dwrow = dw + (co * cin + ci) * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk * d) -
                                     static_cast<std::ptrdiff_t>(pad);
          std::size_t t_lo, t_hi;
          tap_range(off, t_in, t_out, t_lo, t_hi);
          double s = 0.0;
          for (std::size_t t = t_lo; t < t_hi; ++t)
            s += static_cast<double>(gyrow[t]) *
                 xrow[static_cast<std::size_t>(
                     static_cast<std::ptrdiff_t>(t) + off)];
          dwrow[kk] += static_cast<float>(s);
        }
      }
    }
  }
}

void conv1d_dw_gemm_raw(const float* dy, const float* x, std::size_t n,
                        std::size_t cin, std::size_t t_in, std::size_t cout,
                        std::size_t k, std::size_t d, std::size_t pad,
                        std::size_t t_out, float* dw) {
  const std::size_t ck = cin * k;
  const std::size_t chunk = conv1d_chunk(n, ck, t_out);
  pool::Scratch patches(ck * chunk * t_out);
  pool::Scratch dyg(cout * chunk * t_out);
  for (std::size_t n0 = 0; n0 < n; n0 += chunk) {
    const std::size_t nc = std::min(chunk, n - n0);
    const std::size_t nt = nc * t_out;
    im2col_chunk(x + n0 * cin * t_in, nc, cin, t_in, k, d, pad, t_out,
                 patches.data());
    gather_dy_chunk(dy, cout, t_out, n0, nc, dyg.data());
    // dW2[co, ci·K+kk] += dY[co, s·T+t] · patchesᵀ[s·T+t, ci·K+kk];
    // chunks accumulate in fixed n0 order — deterministic.
    gemm_accumulate(cout, ck, nt, dyg.data(), nt, false, patches.data(), nt,
                    true, dw);
  }
}

void conv1d_db_raw(const float* dy, std::size_t n, std::size_t cout,
                   std::size_t t_out, float* db) {
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t co = 0; co < cout; ++co) {
      const float* gyrow = dy + (ni * cout + co) * t_out;
      double s = 0.0;
      for (std::size_t t = 0; t < t_out; ++t) s += gyrow[t];
      db[co] += static_cast<float>(s);
    }
}

bool conv1d_gemm_single_chunk(std::size_t n, std::size_t cin, std::size_t k,
                              std::size_t t_out) {
  return conv1d_chunk(n, cin * k, t_out) >= n;
}

void conv1d_im2col_full(const float* x, std::size_t n, std::size_t cin,
                        std::size_t t_in, std::size_t k, std::size_t d,
                        std::size_t pad, std::size_t t_out, float* patches) {
  im2col_chunk(x, n, cin, t_in, k, d, pad, t_out, patches);
}

void conv1d_gather_dy_full(const float* dy, std::size_t n, std::size_t cout,
                           std::size_t t_out, float* dyg) {
  gather_dy_chunk(dy, cout, t_out, 0, n, dyg);
}

void conv1d_forward_gemm_prepatched(const float* patches, const float* w,
                                    const float* b, std::size_t n,
                                    std::size_t cin, std::size_t cout,
                                    std::size_t k, std::size_t t_out,
                                    float* y) {
  const std::size_t ck = cin * k;
  const std::size_t nt = n * t_out;
  pool::Scratch ybuf(cout * nt);
  if (b != nullptr) {
    for (std::size_t co = 0; co < cout; ++co)
      std::fill_n(ybuf.data() + co * nt, nt, b[co]);
  } else {
    std::fill_n(ybuf.data(), cout * nt, 0.0f);
  }
  gemm_accumulate(cout, nt, ck, w, ck, false, patches, nt, false, ybuf.data());
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t co = 0; co < cout; ++co)
      std::copy_n(ybuf.data() + co * nt + s * t_out, t_out,
                  y + (s * cout + co) * t_out);
}

void conv1d_dx_gemm_pregathered(const float* dyg, const float* w,
                                std::size_t n, std::size_t cin,
                                std::size_t t_in, std::size_t cout,
                                std::size_t k, std::size_t d, std::size_t pad,
                                std::size_t t_out, float* dx) {
  const std::size_t ck = cin * k;
  const std::size_t nt = n * t_out;
  pool::Scratch cols(ck * nt);
  std::fill_n(cols.data(), ck * nt, 0.0f);
  gemm_accumulate(ck, nt, cout, w, ck, true, dyg, nt, false, cols.data());
  col2im_chunk_add(cols.data(), n, cin, t_in, k, d, pad, t_out, dx);
}

void conv1d_dw_gemm_prepatched(const float* dyg, const float* patches,
                               std::size_t n, std::size_t cin,
                               std::size_t cout, std::size_t k,
                               std::size_t t_out, float* dw) {
  const std::size_t ck = cin * k;
  const std::size_t nt = n * t_out;
  gemm_accumulate(cout, ck, nt, dyg, nt, false, patches, nt, true, dw);
}

}  // namespace fwd

void set_conv1d_impl(Conv1dImpl impl) {
  conv1d_impl_flag().store(impl, std::memory_order_relaxed);
}

Conv1dImpl conv1d_impl() {
  return conv1d_impl_flag().load(std::memory_order_relaxed);
}

SingleWindowConvDispatch::SingleWindowConvDispatch()
    : previous_(t_single_window_conv) {
  t_single_window_conv = true;
}

SingleWindowConvDispatch::~SingleWindowConvDispatch() {
  t_single_window_conv = previous_;
}

Variable conv1d(const Variable& x, const Variable& w, const Variable& b,
                std::size_t dilation, std::ptrdiff_t left_pad) {
  check_defined(x, "conv1d");
  check_defined(w, "conv1d");
  Tensor out = fwd::conv1d(x.value(), w.value(),
                           b.defined() ? &b.value() : nullptr, dilation,
                           left_pad);
  const std::size_t k = w.dim(2);
  const std::size_t pad = left_pad < 0 ? (k - 1) * dilation
                                       : static_cast<std::size_t>(left_pad);
  const std::size_t d = dilation;
  return rec(
      trace::OpKind::kConv1d,
      make_node(std::move(out), {x, w, b}, "conv1d", [x, w, b, d, pad] {
    return [xn = x.node(), wn = w.node(),
            bn = b.defined() ? b.node() : nullptr, d, pad](Node& self) {
      const Tensor& xv = xn->value;
      const Tensor& wv = wn->value;
      const Tensor& dy = self.grad;
      const std::size_t n = xv.dim(0), cout = wv.dim(0), ksz = wv.dim(2);
      const std::size_t t_out = dy.dim(2);
      // Same shape-only dispatch as the forward pass (re-evaluated so the
      // backward honours set_conv1d_impl at backward time too).
      const bool lower =
          fwd::conv1d_backward_uses_gemm(n, xv.dim(1), cout, ksz, t_out);

      if (xn->requires_grad) {
        Tensor dx = Tensor::zeros(xv.shape());
        if (lower)
          conv1d_dx_gemm(dy, wv, dx, d, pad);
        else
          conv1d_dx_direct(dy, wv, dx, d, pad);
        xn->accumulate(dx);
      }

      if (wn->requires_grad) {
        Tensor dw = Tensor::zeros(wv.shape());
        if (lower)
          conv1d_dw_gemm(dy, xv, dw, d, pad);
        else
          conv1d_dw_direct(dy, xv, dw, d, pad);
        wn->accumulate(dw);
      }

      if (bn != nullptr && bn->requires_grad) {
        Tensor db = Tensor::zeros({cout});
        for (std::size_t ni = 0; ni < n; ++ni)
          for (std::size_t co = 0; co < cout; ++co) {
            const float* gyrow = dy.raw() + (ni * cout + co) * t_out;
            double s = 0.0;
            for (std::size_t t = 0; t < t_out; ++t) s += gyrow[t];
            db.at(co) += static_cast<float>(s);
          }
        bn->accumulate(db);
      }
    };
  }),
      {&x, &w, &b}, d, pad);
}

// ---------------------------------------------------------------------------
// weight normalisation
// ---------------------------------------------------------------------------

Variable weight_norm(const Variable& v, const Variable& g) {
  check_defined(v, "weight_norm");
  check_defined(g, "weight_norm");
  std::vector<float> norms;
  Tensor out = weight_norm_forward(v.value(), g.value(), &norms);
  const std::size_t cout = v.dim(0);
  const std::size_t row = v.size() / cout;

  return rec(trace::OpKind::kWeightNorm,
             make_node(std::move(out), {v, g}, "weight_norm",
                       [v, g, norms = std::move(norms), row, cout] {
    return [vn = v.node(), gn = g.node(), norms, row, cout](Node& self) {
      const float* pv = vn->value.raw();
      const float* pg = self.grad.raw();
      // Per channel c: w = g_c * v_c / n_c.
      //   dg_c   = (dw_c . v_c) / n_c
      //   dv_c   = g_c/n_c * dw_c - g_c (dw_c . v_c) / n_c^3 * v_c
      Tensor dv = Tensor::zeros(vn->value.shape());
      Tensor dg = Tensor::zeros({cout});
      for (std::size_t c = 0; c < cout; ++c) {
        double dot = 0.0;
        for (std::size_t i = 0; i < row; ++i)
          dot += static_cast<double>(pg[c * row + i]) * pv[c * row + i];
        const float n = norms[c];
        const float gc = gn->value.at(c);
        dg.at(c) = static_cast<float>(dot / n);
        const float a = gc / n;
        const float bcoef = static_cast<float>(gc * dot / (static_cast<double>(n) * n * n));
        float* pdv = dv.raw() + c * row;
        for (std::size_t i = 0; i < row; ++i)
          pdv[i] = a * pg[c * row + i] - bcoef * pv[c * row + i];
      }
      if (vn->requires_grad) vn->accumulate(dv);
      if (gn->requires_grad) gn->accumulate(dg);
    };
  }),
             {&v, &g});
}

// ---------------------------------------------------------------------------
// dropout
// ---------------------------------------------------------------------------

namespace {
Variable apply_mask(const Variable& x, Tensor mask, const char* op) {
  Tensor out = rptcn::mul(x.value(), mask);
  return make_node(std::move(out), {x}, op, [x, mask = std::move(mask)] {
    return [xn = x.node(), mask](Node& self) {
      xn->accumulate(rptcn::mul(self.grad, mask));
    };
  });
}
}  // namespace

Variable dropout(const Variable& x, float p, Rng& rng, bool training) {
  check_defined(x, "dropout");
  RPTCN_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0,1)");
  if (!training || p == 0.0f) return x;
  const bool tracing = trace::active();
  Rng rng_before{0};
  if (tracing) rng_before = rng;  // stream state before this op's draws
  const float scale = 1.0f / (1.0f - p);
  Tensor mask(x.value().shape());
  for (auto& m : mask.data()) m = rng.bernoulli(p) ? 0.0f : scale;
  Variable out = apply_mask(x, std::move(mask), "dropout");
  if (tracing) {
    trace::OpRecord r;
    r.kind = trace::OpKind::kDropout;
    r.result = out.node();
    r.in[0] = x.node();
    r.scalar = p;
    r.rng = &rng;
    r.rng_before = rng_before;
    trace::record(std::move(r));
  }
  return out;
}

Variable spatial_dropout(const Variable& x, float p, Rng& rng, bool training) {
  check_defined(x, "spatial_dropout");
  RPTCN_CHECK(x.value().rank() == 3, "spatial_dropout expects [N,C,T]");
  RPTCN_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0,1)");
  if (!training || p == 0.0f) return x;
  const bool tracing = trace::active();
  Rng rng_before{0};
  if (tracing) rng_before = rng;
  const std::size_t n = x.dim(0), c = x.dim(1), t = x.dim(2);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask({n, c, t});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float m = rng.bernoulli(p) ? 0.0f : scale;
      float* row = mask.raw() + (ni * c + ci) * t;
      for (std::size_t ti = 0; ti < t; ++ti) row[ti] = m;
    }
  Variable out = apply_mask(x, std::move(mask), "spatial_dropout");
  if (tracing) {
    trace::OpRecord r;
    r.kind = trace::OpKind::kSpatialDropout;
    r.result = out.node();
    r.in[0] = x.node();
    r.scalar = p;
    r.rng = &rng;
    r.rng_before = rng_before;
    trace::record(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// attention building blocks
// ---------------------------------------------------------------------------

Variable softmax_lastdim_v(const Variable& a) {
  check_defined(a, "softmax");
  Tensor out = rptcn::softmax_lastdim(a.value());
  return rec(trace::OpKind::kSoftmaxLastdim,
             make_node(std::move(out), {a}, "softmax", [a] {
    return [an = a.node()](Node& self) {
      // Rowwise: dx_i = s_i * (g_i - sum_j g_j s_j).
      const Tensor& s = self.value;
      const Tensor& gy = self.grad;
      const std::size_t last = s.shape().back();
      const std::size_t rows = s.size() / last;
      Tensor dx(s.shape());
      for (std::size_t r = 0; r < rows; ++r) {
        const float* ps = s.raw() + r * last;
        const float* pg = gy.raw() + r * last;
        float* pd = dx.raw() + r * last;
        double dot = 0.0;
        for (std::size_t j = 0; j < last; ++j)
          dot += static_cast<double>(pg[j]) * ps[j];
        for (std::size_t j = 0; j < last; ++j)
          pd[j] = ps[j] * (pg[j] - static_cast<float>(dot));
      }
      an->accumulate(dx);
    };
  }),
             {&a});
}

Variable mul_bcast_channel(const Variable& a, const Variable& z) {
  check_defined(a, "mul_bcast_channel");
  check_defined(z, "mul_bcast_channel");
  Tensor out = fwd::mul_bcast_channel(a.value(), z.value());
  return rec(trace::OpKind::kMulBcastChannel,
             make_node(std::move(out), {a, z}, "mul_bcast_channel", [a, z] {
    return [an = a.node(), zn = z.node()](Node& self) {
      const Tensor& av = an->value;
      const Tensor& zv = zn->value;
      const Tensor& gy = self.grad;
      const std::size_t nb = zv.dim(0), cb = zv.dim(1), tb = zv.dim(2);
      if (an->requires_grad) {
        Tensor da = Tensor::zeros(av.shape());
        for (std::size_t ni = 0; ni < nb; ++ni) {
          float* darow = da.raw() + ni * tb;
          for (std::size_t ci = 0; ci < cb; ++ci) {
            const float* zrow = zv.raw() + (ni * cb + ci) * tb;
            const float* grow = gy.raw() + (ni * cb + ci) * tb;
            for (std::size_t ti = 0; ti < tb; ++ti)
              darow[ti] += grow[ti] * zrow[ti];
          }
        }
        an->accumulate(da);
      }
      if (zn->requires_grad) {
        Tensor dz(zv.shape());
        for (std::size_t ni = 0; ni < nb; ++ni) {
          const float* arow = av.raw() + ni * tb;
          for (std::size_t ci = 0; ci < cb; ++ci) {
            const float* grow = gy.raw() + (ni * cb + ci) * tb;
            float* dzrow = dz.raw() + (ni * cb + ci) * tb;
            for (std::size_t ti = 0; ti < tb; ++ti)
              dzrow[ti] = grow[ti] * arow[ti];
          }
        }
        zn->accumulate(dz);
      }
    };
  }),
             {&a, &z});
}

Variable sum_lastdim(const Variable& a) {
  check_defined(a, "sum_lastdim");
  Tensor out = fwd::sum_lastdim(a.value());
  const std::size_t t = a.dim(2);
  return rec(trace::OpKind::kSumLastdim,
             make_node(std::move(out), {a}, "sum_lastdim", [a, t] {
    return [an = a.node(), t](Node& self) {
      const std::size_t nb = self.grad.dim(0), cb = self.grad.dim(1);
      Tensor dx(an->value.shape());
      for (std::size_t ni = 0; ni < nb; ++ni)
        for (std::size_t ci = 0; ci < cb; ++ci) {
          const float g = self.grad.at(ni, ci);
          float* row = dx.raw() + (ni * cb + ci) * t;
          for (std::size_t ti = 0; ti < t; ++ti) row[ti] = g;
        }
      an->accumulate(dx);
    };
  }),
             {&a});
}

Variable time_slice(const Variable& x, std::size_t t) {
  check_defined(x, "time_slice");
  Tensor out = fwd::time_slice(x.value(), t);
  return rec(trace::OpKind::kTimeSlice,
             make_node(std::move(out), {x}, "time_slice",
                       [x, t] {
                         return [xn = x.node(), t](Node& self) {
                           Tensor dx = Tensor::zeros(xn->value.shape());
                           const std::size_t nb = self.grad.dim(0),
                                             cb = self.grad.dim(1);
                           for (std::size_t ni = 0; ni < nb; ++ni)
                             for (std::size_t ci = 0; ci < cb; ++ci)
                               dx.at(ni, ci, t) = self.grad.at(ni, ci);
                           xn->accumulate(dx);
                         };
                       }),
             {&x}, t);
}

// ---------------------------------------------------------------------------
// sequence utilities
// ---------------------------------------------------------------------------

Variable time_reverse(const Variable& x) {
  check_defined(x, "time_reverse");
  Tensor out = fwd::time_reverse(x.value());
  return rec(trace::OpKind::kTimeReverse,
             make_node(std::move(out), {x}, "time_reverse",
                       [x] {
                         return [xn = x.node()](Node& self) {
                           // involution
                           xn->accumulate(fwd::time_reverse(self.grad));
                         };
                       }),
             {&x});
}

Variable concat_cols(const Variable& a, const Variable& b) {
  check_defined(a, "concat_cols");
  check_defined(b, "concat_cols");
  Tensor out = fwd::concat_cols(a.value(), b.value());
  const std::size_t fa = a.dim(1), fb = b.dim(1);
  return rec(trace::OpKind::kConcatCols,
             make_node(std::move(out), {a, b}, "concat_cols", [a, b, fa, fb] {
    return [an = a.node(), bn = b.node(), fa, fb](Node& self) {
      const std::size_t rows = self.grad.dim(0);
      if (an->requires_grad) {
        Tensor da({rows, fa});
        for (std::size_t i = 0; i < rows; ++i)
          std::copy_n(self.grad.raw() + i * (fa + fb), fa, da.raw() + i * fa);
        an->accumulate(da);
      }
      if (bn->requires_grad) {
        Tensor db({rows, fb});
        for (std::size_t i = 0; i < rows; ++i)
          std::copy_n(self.grad.raw() + i * (fa + fb) + fa, fb,
                      db.raw() + i * fb);
        bn->accumulate(db);
      }
    };
  }),
             {&a, &b});
}

Variable slice_cols(const Variable& x, std::size_t start, std::size_t count) {
  check_defined(x, "slice_cols");
  Tensor out = fwd::slice_cols(x.value(), start, count);
  const std::size_t f = x.dim(1);
  return rec(trace::OpKind::kSliceCols,
             make_node(std::move(out), {x}, "slice_cols",
                       [x, start, count, f] {
                         return [xn = x.node(), start, count,
                                 f](Node& self) {
                           const std::size_t rows = self.grad.dim(0);
                           Tensor dx = Tensor::zeros(xn->value.shape());
                           for (std::size_t i = 0; i < rows; ++i)
                             std::copy_n(self.grad.raw() + i * count, count,
                                         dx.raw() + i * f + start);
                           xn->accumulate(dx);
                         };
                       }),
             {&x}, start, count);
}

// ---------------------------------------------------------------------------
// reductions and losses
// ---------------------------------------------------------------------------

Variable sum_all(const Variable& a) {
  check_defined(a, "sum_all");
  Tensor out = Tensor::scalar(rptcn::sum(a.value()));
  return make_node(std::move(out), {a}, "sum_all", [a] {
    return [an = a.node()](Node& self) {
      an->accumulate(Tensor::full(an->value.shape(), self.grad.item()));
    };
  });
}

Variable mean_all(const Variable& a) {
  check_defined(a, "mean_all");
  const float inv = 1.0f / static_cast<float>(a.size());
  Tensor out = Tensor::scalar(rptcn::sum(a.value()) * inv);
  return make_node(std::move(out), {a}, "mean_all", [a, inv] {
    return [an = a.node(), inv](Node& self) {
      an->accumulate(Tensor::full(an->value.shape(), self.grad.item() * inv));
    };
  });
}

Variable mse_loss(const Variable& pred, const Tensor& target) {
  check_defined(pred, "mse_loss");
  RPTCN_CHECK(pred.value().same_shape(target),
              "mse_loss shape mismatch: " << pred.value().shape_string()
                                          << " vs " << target.shape_string());
  const std::size_t n = pred.size();
  double acc = 0.0;
  {
    const auto pp = pred.value().data();
    const auto pt = target.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(pp[i]) - pt[i];
      acc += d * d;
    }
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc / static_cast<double>(n)));
  return rec(trace::OpKind::kMseLoss,
             make_node(std::move(out), {pred}, "mse_loss", [pred, target, n] {
    return [pn = pred.node(), target, n](Node& self) {
      const float g = self.grad.item() * 2.0f / static_cast<float>(n);
      Tensor dx(pn->value.shape());
      const auto pp = pn->value.data();
      const auto pt = target.data();
      auto pd = dx.data();
      for (std::size_t i = 0; i < n; ++i) pd[i] = g * (pp[i] - pt[i]);
      pn->accumulate(dx);
    };
  }),
             {&pred});
}

Variable mae_loss(const Variable& pred, const Tensor& target) {
  check_defined(pred, "mae_loss");
  RPTCN_CHECK(pred.value().same_shape(target),
              "mae_loss shape mismatch: " << pred.value().shape_string()
                                          << " vs " << target.shape_string());
  const std::size_t n = pred.size();
  double acc = 0.0;
  {
    const auto pp = pred.value().data();
    const auto pt = target.data();
    for (std::size_t i = 0; i < n; ++i)
      acc += std::fabs(static_cast<double>(pp[i]) - pt[i]);
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc / static_cast<double>(n)));
  return rec(trace::OpKind::kMaeLoss,
             make_node(std::move(out), {pred}, "mae_loss", [pred, target, n] {
    return [pn = pred.node(), target, n](Node& self) {
      const float g = self.grad.item() / static_cast<float>(n);
      Tensor dx(pn->value.shape());
      const auto pp = pn->value.data();
      const auto pt = target.data();
      auto pd = dx.data();
      for (std::size_t i = 0; i < n; ++i) {
        const float d = pp[i] - pt[i];
        pd[i] = d > 0.0f ? g : (d < 0.0f ? -g : 0.0f);
      }
      pn->accumulate(dx);
    };
  }),
             {&pred});
}

Variable pinball_loss(const Variable& pred, const Tensor& target, float tau) {
  check_defined(pred, "pinball_loss");
  RPTCN_CHECK(tau > 0.0f && tau < 1.0f, "tau must be in (0,1)");
  RPTCN_CHECK(pred.value().same_shape(target),
              "pinball_loss shape mismatch: " << pred.value().shape_string()
                                              << " vs "
                                              << target.shape_string());
  const std::size_t n = pred.size();
  double acc = 0.0;
  {
    const auto pp = pred.value().data();
    const auto pt = target.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double diff = static_cast<double>(pt[i]) - pp[i];  // y - yhat
      acc += diff >= 0.0 ? tau * diff : (tau - 1.0) * diff;
    }
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc / static_cast<double>(n)));
  return rec(trace::OpKind::kPinballLoss,
             make_node(std::move(out), {pred}, "pinball_loss",
                       [pred, target, tau, n] {
    return [pn = pred.node(), target, tau, n](Node& self) {
      // d/dyhat of rho_tau(y - yhat): -tau if y > yhat, (1 - tau) if y < yhat.
      const float g = self.grad.item() / static_cast<float>(n);
      Tensor dx(pn->value.shape());
      const auto pp = pn->value.data();
      const auto pt = target.data();
      auto pd = dx.data();
      for (std::size_t i = 0; i < n; ++i) {
        const float diff = pt[i] - pp[i];
        pd[i] = diff > 0.0f ? -tau * g : (diff < 0.0f ? (1.0f - tau) * g : 0.0f);
      }
      pn->accumulate(dx);
    };
  }),
             {&pred}, 0, 0, tau);
}

}  // namespace rptcn::ag
