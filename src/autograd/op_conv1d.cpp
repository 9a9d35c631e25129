// conv1d kernels (paper eqs. 3 and 4).
//
// Forward, dX and dW are lowered onto the packed blocked GEMM (tensor_ops
// gemm_accumulate). Samples are batched into one patch matrix
// patches[Cin*K, n_chunk*T_out] so the GEMM sees wide panels:
//   forward: Y = W[Cout, Cin*K] × patches            (+ bias prefill)
//   dW     : dW += dY × patchesᵀ                      (trans_b)
//   dX     : cols = Wᵀ × dY, then col2im scatter-add  (trans_a)
// The batch is cut into chunks that bound the patch scratch. Each chunk runs
// one im2col/gather and then the chunk kernels below; a compiled program
// whose batch fits one chunk runs the same chunk kernels on intermediates it
// builds once and shares (op_table.h, lowering).
//
// Every shape takes this one path. A forward output is its bias plus one
// GEMM element, and a GEMM element's summation order does not depend on the
// matrix shape (tensor_ops.h), so each row of a batched forward is
// bit-identical to its window's N=1 forward.
// Layouts are sample-major: x [N,Cin,T_in], w [Cout,Cin,K], y [N,Cout,T_out].
#include <algorithm>

#include "autograd/op_table.h"
#include "autograd/ops.h"
#include "tensor/buffer_pool.h"
#include "tensor/dispatch.h"
#include "tensor/tensor_ops.h"

namespace rptcn::ag {

namespace {

// Patch-matrix cap: chunk the batch so im2col scratch stays cache-friendly
// and bounded (~8 MiB) for any batch size.
constexpr std::size_t kConv1dChunkFloats = 1u << 21;

/// The dimensions of one conv1d call.
struct Conv {
  explicit Conv(const op::Geom& g)
      : n(g.in[0][0]),
        cin(g.in[0][1]),
        t_in(g.in[0][2]),
        cout(g.in[1][0]),
        k(g.in[1][2]),
        d(g.attrs.dilation),
        pad(g.attrs.pad),
        t_out(g.out[2]) {}
  std::size_t n, cin, t_in, cout, k, d, pad, t_out;

  std::size_t ck() const { return cin * k; }
  /// Samples per im2col chunk.
  std::size_t chunk() const {
    const std::size_t per_sample = std::max<std::size_t>(1, ck() * t_out);
    return std::min(n,
                    std::max<std::size_t>(1, kConv1dChunkFloats / per_sample));
  }
};

/// Valid output range [t_lo, t_hi) for tap offset off = kk*d - pad, i.e. the
/// t with 0 <= t + off < t_in.
inline void tap_range(std::ptrdiff_t off, std::size_t t_in, std::size_t t_out,
                      std::size_t& t_lo, std::size_t& t_hi) {
  // Clamp both ends to [0, t_out]: with pad > T_in a tap can sit entirely in
  // the zero padding (t_lo would exceed t_out), which must yield an empty
  // range, not an out-of-bounds col2im scatter.
  t_lo = off < 0 ? std::min(static_cast<std::size_t>(-off), t_out) : 0u;
  const std::ptrdiff_t hi =
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(t_out),
                               static_cast<std::ptrdiff_t>(t_in) - off);
  t_hi = hi > static_cast<std::ptrdiff_t>(t_lo)
             ? static_cast<std::size_t>(hi)
             : t_lo;
}

inline std::ptrdiff_t tap_offset(const Conv& c, std::size_t kk) {
  return static_cast<std::ptrdiff_t>(kk * c.d) -
         static_cast<std::ptrdiff_t>(c.pad);
}

// -- one chunk of nc samples ------------------------------------------------------

void im2col_chunk(const Conv& c, const float* x, std::size_t nc,
                  float* patches) {
  fwd::im2col_strided(x, c.cin * c.t_in, c.t_in, nc, c.cin, c.t_in, c.k, c.d,
                      c.pad, c.t_out, patches);
}

/// Gather dy[n0+s, co, t] into the chunk layout dyg[co, s*T_out + t]
/// (contiguous row copies).
void gather_dy_chunk(const Conv& c, const float* dy, std::size_t n0,
                     std::size_t nc, float* dyg) {
  const std::size_t nt = nc * c.t_out;
  for (std::size_t s = 0; s < nc; ++s)
    for (std::size_t co = 0; co < c.cout; ++co)
      std::copy_n(dy + ((n0 + s) * c.cout + co) * c.t_out, c.t_out,
                  dyg + co * nt + s * c.t_out);
}

/// Y[co, s·T+t] = b[co] + W2[co, ci·K+kk] · patches[ci·K+kk, s·T+t],
/// scattered to y (the chunk's first sample).
void forward_chunk(const Conv& c, const float* patches, const float* w,
                   const float* b, std::size_t nc, float* y) {
  const std::size_t nt = nc * c.t_out;
  pool::Scratch ybuf(c.cout * nt);
  if (b != nullptr) {
    for (std::size_t co = 0; co < c.cout; ++co)
      std::fill_n(ybuf.data() + co * nt, nt, b[co]);
  } else {
    std::fill_n(ybuf.data(), c.cout * nt, 0.0f);
  }
  gemm_accumulate(c.cout, nt, c.ck(), w, c.ck(), false, patches, nt, false,
                  ybuf.data());
  for (std::size_t s = 0; s < nc; ++s)
    for (std::size_t co = 0; co < c.cout; ++co)
      std::copy_n(ybuf.data() + co * nt + s * c.t_out, c.t_out,
                  y + (s * c.cout + co) * c.t_out);
}

/// cols = W2ᵀ · dY, then dx[s, ci, t + kk*d - pad] += cols[row, s, t]. Rows
/// are scattered in fixed (ci, kk, s, t) order — deterministic.
void dx_chunk(const Conv& c, const float* dyg, const float* w, std::size_t nc,
              float* dx) {
  const std::size_t nt = nc * c.t_out;
  pool::Scratch cols(c.ck() * nt);
  std::fill_n(cols.data(), c.ck() * nt, 0.0f);
  gemm_accumulate(c.ck(), nt, c.cout, w, c.ck(), true, dyg, nt, false,
                  cols.data());
  for (std::size_t ci = 0; ci < c.cin; ++ci) {
    for (std::size_t kk = 0; kk < c.k; ++kk) {
      const float* row = cols.data() + (ci * c.k + kk) * nt;
      const std::ptrdiff_t off = tap_offset(c, kk);
      std::size_t t_lo, t_hi;
      tap_range(off, c.t_in, c.t_out, t_lo, t_hi);
      for (std::size_t s = 0; s < nc; ++s) {
        const float* seg = row + s * c.t_out;
        float* dxrow = dx + (s * c.cin + ci) * c.t_in;
        for (std::size_t t = t_lo; t < t_hi; ++t)
          dxrow[static_cast<std::size_t>(static_cast<std::ptrdiff_t>(t) +
                                         off)] += seg[t];
      }
    }
  }
}

/// dW2[co, ci·K+kk] += dY[co, s·T+t] · patchesᵀ[s·T+t, ci·K+kk].
void dw_chunk(const Conv& c, const float* dyg, const float* patches,
              std::size_t nc, float* dw) {
  const std::size_t nt = nc * c.t_out;
  gemm_accumulate(c.cout, c.ck(), nt, dyg, nt, false, patches, nt, true, dw);
}

}  // namespace

namespace fwd {

void im2col_strided(const float* x, std::size_t xs, std::size_t xc,
                    std::size_t nc, std::size_t cin, std::size_t t_in,
                    std::size_t k, std::size_t d, std::size_t pad,
                    std::size_t t_out, float* patches) {
  // Dispatched patch writer (tensor/dispatch.h). Pure data movement, so
  // every tier is exact; the body lives in tensor/kernels_detail.h.
  kernels().im2col(x, xs, xc, nc, cin, t_in, k, d, pad, t_out, patches);
}

}  // namespace fwd

namespace op {

// The whole-batch kernels: chunks run in fixed n0 order — deterministic.

void conv1d_forward(const Geom& g, const Bufs& b, float* y) {
  const Conv c(g);
  const std::size_t chunk = c.chunk();
  pool::Scratch patches(c.ck() * chunk * c.t_out);
  for (std::size_t n0 = 0; n0 < c.n; n0 += chunk) {
    const std::size_t nc = std::min(chunk, c.n - n0);
    im2col_chunk(c, b.in[0] + n0 * c.cin * c.t_in, nc, patches.data());
    forward_chunk(c, patches.data(), b.in[1], b.in[2], nc,
                  y + n0 * c.cout * c.t_out);
  }
}

void conv1d_dx(const Geom& g, const Bufs& b, float* dx, bool) {
  const Conv c(g);
  const std::size_t chunk = c.chunk();
  pool::Scratch dyg(c.cout * chunk * c.t_out);
  for (std::size_t n0 = 0; n0 < c.n; n0 += chunk) {
    const std::size_t nc = std::min(chunk, c.n - n0);
    gather_dy_chunk(c, b.gy, n0, nc, dyg.data());
    dx_chunk(c, dyg.data(), b.in[1], nc, dx + n0 * c.cin * c.t_in);
  }
}

void conv1d_dw(const Geom& g, const Bufs& b, float* dw, bool) {
  const Conv c(g);
  const std::size_t chunk = c.chunk();
  pool::Scratch patches(c.ck() * chunk * c.t_out);
  pool::Scratch dyg(c.cout * chunk * c.t_out);
  for (std::size_t n0 = 0; n0 < c.n; n0 += chunk) {
    const std::size_t nc = std::min(chunk, c.n - n0);
    im2col_chunk(c, b.in[0] + n0 * c.cin * c.t_in, nc, patches.data());
    gather_dy_chunk(c, b.gy, n0, nc, dyg.data());
    dw_chunk(c, dyg.data(), patches.data(), nc, dw);
  }
}

bool conv1d_single_chunk(const Geom& g) {
  const Conv c(g);
  return c.chunk() >= c.n;
}

void conv1d_patches(const Geom& g, const float* x, float* patches) {
  const Conv c(g);
  im2col_chunk(c, x, c.n, patches);
}

void conv1d_gather_dy(const Geom& g, const float* dy, float* dyg) {
  const Conv c(g);
  gather_dy_chunk(c, dy, 0, c.n, dyg);
}

void conv1d_forward_patches(const Geom& g, const float* patches,
                            const float* w, const float* bias, float* y) {
  const Conv c(g);
  forward_chunk(c, patches, w, bias, c.n, y);
}

void conv1d_dx_gathered(const Geom& g, const float* dyg, const float* w,
                        float* dx) {
  const Conv c(g);
  dx_chunk(c, dyg, w, c.n, dx);
}

void conv1d_dw_patches(const Geom& g, const float* dyg, const float* patches,
                       float* dw) {
  const Conv c(g);
  dw_chunk(c, dyg, patches, c.n, dw);
}

}  // namespace op

}  // namespace rptcn::ag
