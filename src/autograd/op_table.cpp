#include "autograd/op_table.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace rptcn::ag::op {

namespace {

std::size_t numel(const Shape& s) {
  return std::accumulate(s.begin(), s.end(), std::size_t{1},
                         std::multiplies<std::size_t>());
}

std::string str(const Shape& s) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < s.size(); ++i) os << (i ? ", " : "") << s[i];
  os << "]";
  return os.str();
}

/// dst[i] = f(i), or dst[i] += f(i) when `add`; the choice stays outside
/// the loop so both bodies vectorise.
template <typename F>
inline void put(float* dst, std::size_t n, bool add, F f) {
  if (add)
    for (std::size_t i = 0; i < n; ++i) dst[i] += f(i);
  else
    for (std::size_t i = 0; i < n; ++i) dst[i] = f(i);
}

// -- shape rules ----------------------------------------------------------------

Shape same_as_input(const Geom& g) { return g.in[0]; }

Shape same_shapes(const Geom& g) {
  RPTCN_CHECK(g.in[0] == g.in[1],
              "shape mismatch " << str(g.in[0]) << " vs " << str(g.in[1]));
  return g.in[0];
}

Shape loss_shape(const Geom& g) {
  RPTCN_CHECK(g.in[0] == g.in[1], "loss shape mismatch: " << str(g.in[0])
                                                          << " vs "
                                                          << str(g.in[1]));
  return {1};
}

Shape rank3_to_nc(const Geom& g) {
  RPTCN_CHECK(g.in[0].size() == 3, "expected [N,C,T], got " << str(g.in[0]));
  return {g.in[0][0], g.in[0][1]};
}

std::size_t saved_like_output(const Geom& g) { return numel(g.out); }

// -- add, mul -------------------------------------------------------------------

void add_forward(const Geom& g, const Bufs& b, float* y) {
  const float* p = b.in[0];
  const float* q = b.in[1];
  const std::size_t n = numel(g.out);
  for (std::size_t i = 0; i < n; ++i) y[i] = p[i] + q[i];
}

/// d(result)/d(operand) = 1: the result's gradient passes through.
void pass_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const float* gy = b.gy;
  put(dst, numel(g.out), add, [=](std::size_t i) { return gy[i]; });
}

void mul_forward(const Geom& g, const Bufs& b, float* y) {
  const float* p = b.in[0];
  const float* q = b.in[1];
  const std::size_t n = numel(g.out);
  for (std::size_t i = 0; i < n; ++i) y[i] = p[i] * q[i];
}

template <std::size_t kOther>
void mul_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const float* gy = b.gy;
  const float* o = b.in[kOther];
  put(dst, numel(g.out), add, [=](std::size_t i) { return gy[i] * o[i]; });
}

// -- linear: y[N,O] = x[N,F] · w[O,F]ᵀ + b[O] ------------------------------------

Shape linear_shape(const Geom& g) {
  const Shape& x = g.in[0];
  const Shape& w = g.in[1];
  RPTCN_CHECK(x.size() == 2 && w.size() == 2, "linear expects x[N,F], w[O,F]");
  RPTCN_CHECK(x[1] == w[1], "linear feature mismatch: x " << str(x) << ", w "
                                                          << str(w));
  if (!g.in[2].empty())
    RPTCN_CHECK(g.in[2].size() == 1 && g.in[2][0] == w[0],
                "linear bias shape mismatch");
  return {x[0], w[0]};
}

void linear_entry_forward(const Geom& g, const Bufs& b, float* y) {
  linear_forward(g, b, y, nullptr);
}

void linear_entry_dx(const Geom& g, const Bufs& b, float* dst, bool) {
  linear_dx(g, b, dst, nullptr);
}

/// dw += dyᵀ·x.
void linear_dw(const Geom& g, const Bufs& b, float* dst, bool) {
  const std::size_t m = g.in[0][0], in_f = g.in[1][1], out_f = g.in[1][0];
  gemm_accumulate(out_f, in_f, m, b.gy, out_f, true, b.in[0], in_f, false,
                  dst);
}

/// db += column sums of dy, in (i, j) order.
void linear_db(const Geom& g, const Bufs& b, float* dst, bool) {
  const std::size_t m = g.out[0], out_f = g.out[1];
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < out_f; ++j) dst[j] += b.gy[i * out_f + j];
}

// -- activations ----------------------------------------------------------------

void relu_forward(const Geom& g, const Bufs& b, float* y) {
  const float* x = b.in[0];
  const std::size_t n = numel(g.out);
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const float* gy = b.gy;
  const float* x = b.in[0];
  // Loading the gradient before the select makes both arms register
  // operands, so the loop if-converts and vectorises instead of branching
  // on a ~50% live mask. Selection does not round: the stored bits are
  // gy[i]'s or 0.0f's either way.
  put(dst, numel(g.out), add, [=](std::size_t i) {
    const float v = gy[i];
    return x[i] <= 0.0f ? 0.0f : v;
  });
}

void sigmoid_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = numel(g.out);
  std::copy_n(b.in[0], n, y);
  sigmoid_inplace(y, n);
}

/// dx = dy * s * (1 - s), s the forward output.
void sigmoid_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const float* gy = b.gy;
  const float* s = b.out;
  put(dst, numel(g.out), add,
      [=](std::size_t i) { return gy[i] * (s[i] * (1.0f - s[i])); });
}

void tanh_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = numel(g.out);
  std::copy_n(b.in[0], n, y);
  tanh_inplace(y, n);
}

void tanh_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const float* gy = b.gy;
  const float* s = b.out;
  put(dst, numel(g.out), add,
      [=](std::size_t i) { return gy[i] * (1.0f - s[i] * s[i]); });
}

// -- conv1d (kernels in op_conv1d.cpp) ------------------------------------------

Shape conv1d_shape(const Geom& g) {
  const Shape& x = g.in[0];
  const Shape& w = g.in[1];
  RPTCN_CHECK(x.size() == 3, "conv1d input must be [N,Cin,T], got " << str(x));
  RPTCN_CHECK(w.size() == 3,
              "conv1d weight must be [Cout,Cin,K], got " << str(w));
  RPTCN_CHECK(x[1] == w[1], "conv1d channel mismatch: x " << str(x) << ", w "
                                                          << str(w));
  RPTCN_CHECK(g.attrs.dilation >= 1, "conv1d dilation must be >= 1");
  if (!g.in[2].empty())
    RPTCN_CHECK(g.in[2].size() == 1 && g.in[2][0] == w[0],
                "conv1d bias must be [Cout]");
  const std::size_t k_reach = (w[2] - 1) * g.attrs.dilation;
  RPTCN_CHECK(x[2] + g.attrs.pad >= k_reach,
              "conv1d: input too short for kernel reach " << k_reach);
  return {x[0], w[0], x[2] + g.attrs.pad - k_reach};
}

/// db[co] += per-(sample, channel) double row-sums of dy, in (n, co) order.
void conv1d_db(const Geom& g, const Bufs& b, float* dst, bool) {
  const std::size_t n = g.out[0], cout = g.out[1], t_out = g.out[2];
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t co = 0; co < cout; ++co) {
      const float* gyrow = b.gy + (ni * cout + co) * t_out;
      double s = 0.0;
      for (std::size_t t = 0; t < t_out; ++t) s += gyrow[t];
      dst[co] += static_cast<float>(s);
    }
}

// -- weight_norm: w[c,...] = g[c] * v[c,...] / ||v[c,...]||_2 -------------------

Shape weight_norm_shape(const Geom& g) {
  RPTCN_CHECK(g.in[0].size() >= 2, "weight_norm expects rank >= 2");
  RPTCN_CHECK(g.in[1].size() == 1 && g.in[1][0] == g.in[0][0],
              "weight_norm gain must be [Cout]");
  return g.in[0];
}

std::size_t weight_norm_saved(const Geom& g) { return g.in[0][0]; }

/// Also saves the per-channel L2 norms the backward reuses.
void weight_norm_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t cout = g.in[0][0];
  const std::size_t row = numel(g.in[0]) / cout;
  const float* pv = b.in[0];
  const float* gain = b.in[1];
  for (std::size_t c = 0; c < cout; ++c) {
    double s = 0.0;
    for (std::size_t i = 0; i < row; ++i) {
      const float vv = pv[c * row + i];
      s += static_cast<double>(vv) * vv;
    }
    const float nrm = static_cast<float>(std::sqrt(std::max(s, 1e-24)));
    b.saved[c] = nrm;
    const float scale = gain[c] / nrm;
    for (std::size_t i = 0; i < row; ++i) y[c * row + i] = pv[c * row + i] * scale;
  }
}

/// dw_c . v_c, the per-channel dot both weight_norm gradients start from.
double weight_norm_dot(const float* gy, const float* pv, std::size_t c,
                       std::size_t row) {
  double dot = 0.0;
  for (std::size_t i = 0; i < row; ++i)
    dot += static_cast<double>(gy[c * row + i]) * pv[c * row + i];
  return dot;
}

/// dv_c = g_c/n_c * dw_c - g_c (dw_c . v_c) / n_c^3 * v_c.
void weight_norm_dv(const Geom& g, const Bufs& b, float* dst, bool add) {
  const std::size_t cout = g.in[0][0];
  const std::size_t row = numel(g.in[0]) / cout;
  const float* gy = b.gy;
  const float* pv = b.in[0];
  for (std::size_t c = 0; c < cout; ++c) {
    const double dot = weight_norm_dot(gy, pv, c, row);
    const float n = b.saved[c];
    const float gc = b.in[1][c];
    const float a = gc / n;
    const float bcoef =
        static_cast<float>(gc * dot / (static_cast<double>(n) * n * n));
    const float* gr = gy + c * row;
    const float* vr = pv + c * row;
    put(dst + c * row, row, add,
        [=](std::size_t i) { return a * gr[i] - bcoef * vr[i]; });
  }
}

/// dg_c = (dw_c . v_c) / n_c.
void weight_norm_dg(const Geom& g, const Bufs& b, float* dst, bool add) {
  const std::size_t cout = g.in[0][0];
  const std::size_t row = numel(g.in[0]) / cout;
  for (std::size_t c = 0; c < cout; ++c) {
    const float e =
        static_cast<float>(weight_norm_dot(b.gy, b.in[0], c, row) / b.saved[c]);
    if (add)
      dst[c] += e;
    else
      dst[c] = e;
  }
}

// -- dropout (inverted: keeps with prob 1-p, scales by 1/(1-p)) ------------------

/// Draws the mask from the net's live stream, in the tape's order, then
/// applies it. The mask is the saved buffer.
void dropout_forward(const Geom& g, const Bufs& b, float* y) {
  const float p = g.attrs.p;
  const float scale = 1.0f / (1.0f - p);
  const std::size_t n = numel(g.out);
  float* mk = b.saved;
  for (std::size_t i = 0; i < n; ++i)
    mk[i] = g.attrs.rng->bernoulli(p) ? 0.0f : scale;
  for (std::size_t i = 0; i < n; ++i) y[i] = b.in[0][i] * mk[i];
}

/// Spatial (channel) dropout on [N,C,T]: one draw per (sample, channel).
void spatial_dropout_forward(const Geom& g, const Bufs& b, float* y) {
  const float p = g.attrs.p;
  const float scale = 1.0f / (1.0f - p);
  const std::size_t nb = g.out[0], cb = g.out[1], tb = g.out[2];
  float* mk = b.saved;
  for (std::size_t ni = 0; ni < nb; ++ni)
    for (std::size_t ci = 0; ci < cb; ++ci) {
      const float m = g.attrs.rng->bernoulli(p) ? 0.0f : scale;
      float* row = mk + (ni * cb + ci) * tb;
      for (std::size_t ti = 0; ti < tb; ++ti) row[ti] = m;
    }
  const std::size_t n = numel(g.out);
  for (std::size_t i = 0; i < n; ++i) y[i] = b.in[0][i] * mk[i];
}

void dropout_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const float* gy = b.gy;
  const float* mk = b.saved;
  put(dst, numel(g.out), add, [=](std::size_t i) { return gy[i] * mk[i]; });
}

// -- attention building blocks (eqs. 7/8) ------------------------------------------

Shape softmax_shape(const Geom& g) {
  RPTCN_CHECK(!g.in[0].empty(), "softmax of rank-0 tensor");
  return g.in[0];
}

void softmax_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t last = g.out.back();
  softmax_rows(b.in[0], y, numel(g.out) / last, last);
}

/// Rowwise: dx_i = s_i * (g_i - sum_j g_j s_j).
void softmax_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const std::size_t last = g.out.back();
  const std::size_t rows = numel(g.out) / last;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* ps = b.out + r * last;
    const float* pg = b.gy + r * last;
    double dot = 0.0;
    for (std::size_t j = 0; j < last; ++j)
      dot += static_cast<double>(pg[j]) * ps[j];
    put(dst + r * last, last, add, [=](std::size_t j) {
      return ps[j] * (pg[j] - static_cast<float>(dot));
    });
  }
}

Shape mul_bcast_shape(const Geom& g) {
  const Shape& a = g.in[0];
  const Shape& z = g.in[1];
  RPTCN_CHECK(a.size() == 3 && a[1] == 1,
              "attention weights must be [N,1,T], got " << str(a));
  RPTCN_CHECK(z.size() == 3, "features must be [N,C,T]");
  RPTCN_CHECK(a[0] == z[0] && a[2] == z[2],
              "mul_bcast_channel shape mismatch: " << str(a) << " vs "
                                                   << str(z));
  return z;
}

/// out[n,c,t] = a[n,0,t] * z[n,c,t].
void mul_bcast_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = g.out[0], c = g.out[1], t = g.out[2];
  for (std::size_t ni = 0; ni < n; ++ni) {
    const float* arow = b.in[0] + ni * t;
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* zrow = b.in[1] + (ni * c + ci) * t;
      float* orow = y + (ni * c + ci) * t;
      for (std::size_t ti = 0; ti < t; ++ti) orow[ti] = arow[ti] * zrow[ti];
    }
  }
}

/// da[n,0,t] += sum_c dy[n,c,t] * z[n,c,t].
void mul_bcast_da(const Geom& g, const Bufs& b, float* dst, bool) {
  const std::size_t n = g.out[0], c = g.out[1], t = g.out[2];
  for (std::size_t ni = 0; ni < n; ++ni) {
    float* darow = dst + ni * t;
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* zrow = b.in[1] + (ni * c + ci) * t;
      const float* grow = b.gy + (ni * c + ci) * t;
      for (std::size_t ti = 0; ti < t; ++ti) darow[ti] += grow[ti] * zrow[ti];
    }
  }
}

void mul_bcast_dz(const Geom& g, const Bufs& b, float* dst, bool add) {
  const std::size_t n = g.out[0], c = g.out[1], t = g.out[2];
  for (std::size_t ni = 0; ni < n; ++ni) {
    const float* arow = b.in[0] + ni * t;
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* grow = b.gy + (ni * c + ci) * t;
      put(dst + (ni * c + ci) * t, t, add,
          [=](std::size_t ti) { return grow[ti] * arow[ti]; });
    }
  }
}

/// [N,C,T] -> [N,C]: double-accumulated sum over time.
void sum_lastdim_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t rows = numel(g.out), t = g.in[0][2];
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = b.in[0] + r * t;
    double s = 0.0;
    for (std::size_t ti = 0; ti < t; ++ti) s += row[ti];
    y[r] = static_cast<float>(s);
  }
}

void sum_lastdim_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const std::size_t rows = numel(g.out), t = g.in[0][2];
  for (std::size_t r = 0; r < rows; ++r) {
    const float gr = b.gy[r];
    put(dst + r * t, t, add, [=](std::size_t) { return gr; });
  }
}

Shape time_slice_shape(const Geom& g) {
  const Shape out = rank3_to_nc(g);
  RPTCN_CHECK(g.attrs.start < g.in[0][2], "time_slice index "
                                              << g.attrs.start << " out of T="
                                              << g.in[0][2]);
  return out;
}

/// [N,C,T] -> [N,C] at t = attrs.start.
void time_slice_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t rows = numel(g.out), tt = g.in[0][2], t = g.attrs.start;
  for (std::size_t r = 0; r < rows; ++r) y[r] = b.in[0][r * tt + t];
}

/// Scatters dy into column t of a zero-filled [N,C,T].
void time_slice_grad(const Geom& g, const Bufs& b, float* dst, bool) {
  const std::size_t rows = numel(g.out), tt = g.in[0][2], t = g.attrs.start;
  for (std::size_t r = 0; r < rows; ++r) dst[r * tt + t] = b.gy[r];
}

// -- sequence utilities -------------------------------------------------------------

Shape rank3(const Geom& g) {
  RPTCN_CHECK(g.in[0].size() == 3, "expected [N,C,T], got " << str(g.in[0]));
  return g.in[0];
}

/// t' = T-1-t along the last axis.
void time_reverse_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t t = g.out[2], rows = numel(g.out) / t;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* src = b.in[0] + r * t;
    float* dst = y + r * t;
    for (std::size_t ti = 0; ti < t; ++ti) dst[ti] = src[t - 1 - ti];
  }
}

/// The reversal is an involution: dx is dy reversed.
void time_reverse_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const std::size_t t = g.out[2], rows = numel(g.out) / t;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* src = b.gy + r * t;
    put(dst + r * t, t, add, [=](std::size_t ti) { return src[t - 1 - ti]; });
  }
}

Shape concat_cols_shape(const Geom& g) {
  RPTCN_CHECK(g.in[0].size() == 2 && g.in[1].size() == 2,
              "concat_cols expects rank-2 operands");
  RPTCN_CHECK(g.in[0][0] == g.in[1][0], "concat_cols batch mismatch");
  return {g.in[0][0], g.in[0][1] + g.in[1][1]};
}

/// [N,A] ++ [N,B] -> [N,A+B].
void concat_cols_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = g.out[0], fa = g.in[0][1], fb = g.in[1][1];
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(b.in[0] + i * fa, fa, y + i * (fa + fb));
    std::copy_n(b.in[1] + i * fb, fb, y + i * (fa + fb) + fa);
  }
}

/// Operand kSide's columns of dy.
template <std::size_t kSide>
void concat_cols_grad(const Geom& g, const Bufs& b, float* dst, bool add) {
  const std::size_t n = g.out[0], f = g.out[1], fp = g.in[kSide][1];
  const std::size_t col0 = kSide == 0 ? 0 : g.in[0][1];
  for (std::size_t i = 0; i < n; ++i) {
    const float* src = b.gy + i * f + col0;
    put(dst + i * fp, fp, add, [=](std::size_t j) { return src[j]; });
  }
}

Shape slice_cols_shape(const Geom& g) {
  RPTCN_CHECK(g.in[0].size() == 2,
              "slice_cols expects rank-2 input, got " << str(g.in[0]));
  const std::size_t start = g.attrs.start, count = g.attrs.count;
  RPTCN_CHECK(count > 0 && start + count <= g.in[0][1],
              "slice_cols [" << start << ", " << (start + count)
                             << ") out of range for " << g.in[0][1]
                             << " columns");
  return {g.in[0][0], count};
}

/// [N,F] -> [N,count] starting at column attrs.start.
void slice_cols_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = g.out[0], f = g.in[0][1];
  const std::size_t start = g.attrs.start, count = g.attrs.count;
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(b.in[0] + i * f + start, count, y + i * count);
}

/// Scatters dy into the sliced columns of a zero-filled [N,F].
void slice_cols_grad(const Geom& g, const Bufs& b, float* dst, bool) {
  const std::size_t n = g.out[0], f = g.in[0][1];
  const std::size_t start = g.attrs.start, count = g.attrs.count;
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(b.gy + i * count, count, dst + i * f + start);
}

// -- losses (eqs. 9/10 and the pinball extension); operand 1 is the target --------

void mse_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = numel(g.in[0]);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(b.in[0][i]) - b.in[1][i];
    acc += d * d;
  }
  y[0] = static_cast<float>(acc / static_cast<double>(n));
}

void mse_grad(const Geom& geom, const Bufs& b, float* dst, bool add) {
  const std::size_t n = numel(geom.in[0]);
  const float g = b.gy[0] * 2.0f / static_cast<float>(n);
  const float* p = b.in[0];
  const float* t = b.in[1];
  put(dst, n, add, [=](std::size_t i) { return g * (p[i] - t[i]); });
}

void mae_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = numel(g.in[0]);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    acc += std::fabs(static_cast<double>(b.in[0][i]) - b.in[1][i]);
  y[0] = static_cast<float>(acc / static_cast<double>(n));
}

void mae_grad(const Geom& geom, const Bufs& b, float* dst, bool add) {
  const std::size_t n = numel(geom.in[0]);
  const float g = b.gy[0] / static_cast<float>(n);
  const float* p = b.in[0];
  const float* t = b.in[1];
  put(dst, n, add, [=](std::size_t i) {
    const float d = p[i] - t[i];
    return d > 0.0f ? g : (d < 0.0f ? -g : 0.0f);
  });
}

/// Mean of rho_tau(y - yhat).
void pinball_forward(const Geom& g, const Bufs& b, float* y) {
  const std::size_t n = numel(g.in[0]);
  const float tau = g.attrs.tau;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(b.in[1][i]) - b.in[0][i];
    acc += diff >= 0.0 ? tau * diff : (tau - 1.0) * diff;
  }
  y[0] = static_cast<float>(acc / static_cast<double>(n));
}

/// d/dyhat of rho_tau(y - yhat): -tau if y > yhat, (1 - tau) if y < yhat.
void pinball_grad(const Geom& geom, const Bufs& b, float* dst, bool add) {
  const std::size_t n = numel(geom.in[0]);
  const float g = b.gy[0] / static_cast<float>(n);
  const float tau = geom.attrs.tau;
  const float* p = b.in[0];
  const float* t = b.in[1];
  put(dst, n, add, [=](std::size_t i) {
    const float diff = t[i] - p[i];
    return diff > 0.0f ? -tau * g : (diff < 0.0f ? (1.0f - tau) * g : 0.0f);
  });
}

// -- the table ----------------------------------------------------------------------

constexpr bool kAcc = true;
constexpr Grad kNoGrad{};

const std::array<Entry, trace::kNumOpKinds> kTable{{
    {OpKind::kAdd, "add", 2, same_shapes, nullptr, add_forward,
     {{{pass_grad, kGy}, {pass_grad, kGy}, kNoGrad}}, false},
    {OpKind::kMul, "mul", 2, same_shapes, nullptr, mul_forward,
     {{{mul_grad<1>, kGy | kIn1}, {mul_grad<0>, kGy | kIn0}, kNoGrad}}, false},
    {OpKind::kLinear, "linear", 3, linear_shape, nullptr, linear_entry_forward,
     {{{linear_entry_dx, kGy | kIn1, kAcc},
       {linear_dw, kGy | kIn0, kAcc},
       {linear_db, kGy, kAcc}}},
     false},
    {OpKind::kRelu, "relu", 1, same_as_input, nullptr, relu_forward,
     {{{relu_grad, kGy | kIn0}, kNoGrad, kNoGrad}}, false},
    {OpKind::kSigmoid, "sigmoid", 1, same_as_input, nullptr, sigmoid_forward,
     {{{sigmoid_grad, kGy | kOut}, kNoGrad, kNoGrad}}, false},
    {OpKind::kTanh, "tanh", 1, same_as_input, nullptr, tanh_forward,
     {{{tanh_grad, kGy | kOut}, kNoGrad, kNoGrad}}, false},
    {OpKind::kConv1d, "conv1d", 3, conv1d_shape, nullptr, conv1d_forward,
     {{{conv1d_dx, kGy | kIn1, kAcc},
       {conv1d_dw, kGy | kIn0, kAcc},
       {conv1d_db, kGy, kAcc}}},
     false},
    {OpKind::kWeightNorm, "weight_norm", 2, weight_norm_shape,
     weight_norm_saved, weight_norm_forward,
     {{{weight_norm_dv, kGy | kIn0 | kIn1 | kSaved},
       {weight_norm_dg, kGy | kIn0 | kSaved},
       kNoGrad}},
     false},
    {OpKind::kDropout, "dropout", 1, same_as_input, saved_like_output,
     dropout_forward, {{{dropout_grad, kGy | kSaved}, kNoGrad, kNoGrad}},
     false},
    {OpKind::kSpatialDropout, "spatial_dropout", 1, rank3, saved_like_output,
     spatial_dropout_forward,
     {{{dropout_grad, kGy | kSaved}, kNoGrad, kNoGrad}}, false},
    {OpKind::kSoftmaxLastdim, "softmax", 1, softmax_shape, nullptr,
     softmax_forward, {{{softmax_grad, kGy | kOut}, kNoGrad, kNoGrad}}, false},
    {OpKind::kMulBcastChannel, "mul_bcast_channel", 2, mul_bcast_shape,
     nullptr, mul_bcast_forward,
     {{{mul_bcast_da, kGy | kIn1, kAcc}, {mul_bcast_dz, kGy | kIn0}, kNoGrad}},
     false},
    {OpKind::kSumLastdim, "sum_lastdim", 1, rank3_to_nc, nullptr,
     sum_lastdim_forward, {{{sum_lastdim_grad, kGy}, kNoGrad, kNoGrad}},
     false},
    {OpKind::kTimeSlice, "time_slice", 1, time_slice_shape, nullptr,
     time_slice_forward, {{{time_slice_grad, kGy, kAcc}, kNoGrad, kNoGrad}},
     false},
    {OpKind::kTimeReverse, "time_reverse", 1, rank3, nullptr,
     time_reverse_forward, {{{time_reverse_grad, kGy}, kNoGrad, kNoGrad}},
     false},
    {OpKind::kConcatCols, "concat_cols", 2, concat_cols_shape, nullptr,
     concat_cols_forward,
     {{{concat_cols_grad<0>, kGy}, {concat_cols_grad<1>, kGy}, kNoGrad}},
     false},
    {OpKind::kSliceCols, "slice_cols", 1, slice_cols_shape, nullptr,
     slice_cols_forward, {{{slice_cols_grad, kGy, kAcc}, kNoGrad, kNoGrad}},
     false},
    {OpKind::kMseLoss, "mse_loss", 2, loss_shape, nullptr, mse_forward,
     {{{mse_grad, kGy | kIn0 | kIn1}, kNoGrad, kNoGrad}}, true},
    {OpKind::kMaeLoss, "mae_loss", 2, loss_shape, nullptr, mae_forward,
     {{{mae_grad, kGy | kIn0 | kIn1}, kNoGrad, kNoGrad}}, true},
    {OpKind::kPinballLoss, "pinball_loss", 2, loss_shape, nullptr,
     pinball_forward, {{{pinball_grad, kGy | kIn0 | kIn1}, kNoGrad, kNoGrad}},
     true},
}};

}  // namespace

const std::array<Entry, trace::kNumOpKinds>& table() { return kTable; }

const Entry& entry(OpKind kind) {
  return kTable[static_cast<std::size_t>(kind)];
}

void linear_forward(const Geom& g, const Bufs& b, float* y,
                    const PackedB* w_packed) {
  const std::size_t m = g.in[0][0], in_f = g.in[1][1], out_f = g.in[1][0];
  std::fill_n(y, m * out_f, 0.0f);
  if (w_packed != nullptr)
    gemm_accumulate_packed_b(m, out_f, in_f, b.in[0], in_f, false, *w_packed,
                             y);
  else
    gemm_accumulate(m, out_f, in_f, b.in[0], in_f, false, b.in[1], in_f, true,
                    y);
  if (b.in[2] != nullptr)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < out_f; ++j) y[i * out_f + j] += b.in[2][j];
}

/// dx += dy·W.
void linear_dx(const Geom& g, const Bufs& b, float* dx,
               const PackedB* w_packed) {
  const std::size_t m = g.in[0][0], in_f = g.in[1][1], out_f = g.in[1][0];
  if (w_packed != nullptr)
    gemm_accumulate_packed_b(m, in_f, out_f, b.gy, out_f, false, *w_packed,
                             dx);
  else
    gemm_accumulate(m, in_f, out_f, b.gy, out_f, false, b.in[1], in_f, false,
                    dx);
}

}  // namespace rptcn::ag::op
