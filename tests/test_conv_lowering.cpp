// Tests for the im2col+GEMM conv1d, across the dilation/kernel/padding grid
// the RPTCN stack uses. Forward values and all three gradients must agree
// to allclose tolerance with a naive reference written here (the eq. 3 sum
// and its gradients, accumulated in double), and the lowered path must pass
// finite-difference gradcheck on its own. The batch-invariance tests check
// that every row of a batched conv1d or linear, and every window's conv1d
// dX, is bit-identical to its own N=1 call, with no scope or setting
// involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

struct LoweringCase {
  std::size_t n, cin, cout, k, dilation, t;
  std::ptrdiff_t left_pad;  // -1 = causal
};

struct ConvRun {
  Tensor y, dx, dw, db;
};

/// Forward + backward through ag::conv1d, seeding backward with a fixed dy.
ConvRun run_conv(const LoweringCase& c, const Tensor& xv, const Tensor& wv,
                 const Tensor& bv, const Tensor& dy) {
  Variable x(xv, /*requires_grad=*/true);
  Variable w(wv, /*requires_grad=*/true);
  Variable b(bv, /*requires_grad=*/true);
  Variable y = ag::conv1d(x, w, b, c.dilation, c.left_pad);
  y.backward(dy);
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

/// The paper's eq. 3 written out, with its dX/dW/db, accumulated in double:
///   y[n,co,t] = b[co] + sum_{ci,kk} w[co,ci,kk] * x[n,ci,t + kk*d - pad],
/// where x reads as zero outside [0, T).
ConvRun reference_conv(const LoweringCase& c, std::size_t pad,
                       std::size_t t_out, const Tensor& x, const Tensor& w,
                       const Tensor& b, const Tensor& dy) {
  std::vector<double> y(c.n * c.cout * t_out), dx(c.n * c.cin * c.t),
      dw(c.cout * c.cin * c.k), db(c.cout);
  for (std::size_t ni = 0; ni < c.n; ++ni)
    for (std::size_t co = 0; co < c.cout; ++co)
      for (std::size_t t = 0; t < t_out; ++t) {
        const double g = dy.at(ni, co, t);
        double acc = b.at(co);
        db[co] += g;
        for (std::size_t ci = 0; ci < c.cin; ++ci)
          for (std::size_t kk = 0; kk < c.k; ++kk) {
            const std::ptrdiff_t src =
                static_cast<std::ptrdiff_t>(t + kk * c.dilation) -
                static_cast<std::ptrdiff_t>(pad);
            if (src < 0 || src >= static_cast<std::ptrdiff_t>(c.t)) continue;
            const auto s = static_cast<std::size_t>(src);
            acc += static_cast<double>(w.at(co, ci, kk)) * x.at(ni, ci, s);
            dx[(ni * c.cin + ci) * c.t + s] += g * w.at(co, ci, kk);
            dw[(co * c.cin + ci) * c.k + kk] += g * x.at(ni, ci, s);
          }
        y[(ni * c.cout + co) * t_out + t] = acc;
      }
  const auto to_tensor = [](const std::vector<double>& v,
                            std::vector<std::size_t> shape) {
    Tensor out(std::move(shape));
    std::transform(v.begin(), v.end(), out.raw(),
                   [](double d) { return static_cast<float>(d); });
    return out;
  };
  return {to_tensor(y, {c.n, c.cout, t_out}), to_tensor(dx, {c.n, c.cin, c.t}),
          to_tensor(dw, {c.cout, c.cin, c.k}), to_tensor(db, {c.cout})};
}

class Conv1dLowering : public ::testing::TestWithParam<LoweringCase> {};

TEST_P(Conv1dLowering, MatchesDirectForwardAndBackward) {
  const auto c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.n * 1000 + c.cin * 100 + c.cout * 10 +
                                     c.k + c.dilation + c.t) +
          static_cast<std::uint64_t>(c.left_pad + 1));
  const Tensor xv = Tensor::randn({c.n, c.cin, c.t}, rng);
  const Tensor wv = Tensor::randn({c.cout, c.cin, c.k}, rng);
  const Tensor bv = Tensor::randn({c.cout}, rng);
  const std::size_t pad = c.left_pad < 0 ? (c.k - 1) * c.dilation
                                         : static_cast<std::size_t>(c.left_pad);
  const std::size_t t_out = c.t + pad - (c.k - 1) * c.dilation;
  const Tensor dy = Tensor::randn({c.n, c.cout, t_out}, rng);

  const ConvRun ref = reference_conv(c, pad, t_out, xv, wv, bv, dy);
  const ConvRun got = run_conv(c, xv, wv, bv, dy);

  EXPECT_TRUE(allclose(ref.y, got.y)) << "forward mismatch";
  EXPECT_TRUE(allclose(ref.dx, got.dx)) << "dX mismatch";
  EXPECT_TRUE(allclose(ref.dw, got.dw, 1e-4f, 1e-3f)) << "dW mismatch";
  EXPECT_TRUE(allclose(ref.db, got.db)) << "db mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    DilationKernelPadGrid, Conv1dLowering,
    ::testing::Values(
        // Causal padding across the TCN's dilation doubling schedule, k=3
        // (the paper's kernel) and k=2, with batches > 1.
        LoweringCase{2, 3, 4, 3, 1, 12, -1}, LoweringCase{2, 3, 4, 3, 2, 12, -1},
        LoweringCase{3, 2, 5, 3, 4, 24, -1}, LoweringCase{2, 4, 3, 3, 8, 24, -1},
        LoweringCase{2, 3, 4, 2, 1, 10, -1}, LoweringCase{3, 2, 3, 2, 2, 16, -1},
        LoweringCase{2, 2, 4, 2, 4, 24, -1}, LoweringCase{2, 3, 2, 2, 8, 24, -1},
        // Explicit pad 0 ("valid"): T_out < T_in exercises the patch-window
        // clipping logic separately from the causal zero-fill.
        LoweringCase{2, 3, 4, 3, 1, 12, 0}, LoweringCase{2, 2, 3, 3, 2, 16, 0},
        LoweringCase{3, 2, 4, 3, 4, 24, 0}, LoweringCase{2, 3, 2, 2, 8, 20, 0},
        // Paper shape: batch 32 would be slow under gradcheck but is cheap
        // here; this is the exact residual-block shape of the RPTCN config.
        LoweringCase{8, 16, 16, 3, 1, 24, -1},
        LoweringCase{8, 16, 16, 3, 2, 24, -1}));

/// Finite-difference check of the lowered path itself (not just agreement
/// with the reference) over the same grid corners.
struct GradCase {
  std::size_t cin, cout, k, dilation, t;
  std::ptrdiff_t left_pad;
};

class Conv1dLoweringGrad : public ::testing::TestWithParam<GradCase> {};

TEST_P(Conv1dLoweringGrad, GradcheckPassesWithIm2colForced) {
  const auto c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.cin * 100 + c.cout * 10 + c.k +
                                     c.dilation + c.t) +
          static_cast<std::uint64_t>(c.left_pad + 1));
  const std::size_t dilation = c.dilation;
  const std::ptrdiff_t pad = c.left_pad;
  const auto r = ag::gradcheck(
      [dilation, pad](const std::vector<Variable>& in) {
        return ag::conv1d(in[0], in[1], in[2], dilation, pad);
      },
      {Tensor::randn({2, c.cin, c.t}, rng),
       Tensor::randn({c.cout, c.cin, c.k}, rng), Tensor::randn({c.cout}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

INSTANTIATE_TEST_SUITE_P(
    DilationKernelPadGrid, Conv1dLoweringGrad,
    ::testing::Values(GradCase{2, 3, 3, 1, 8, -1}, GradCase{2, 3, 3, 2, 8, -1},
                      GradCase{3, 2, 3, 4, 12, -1}, GradCase{2, 2, 3, 8, 12, -1},
                      GradCase{2, 3, 2, 1, 8, -1}, GradCase{3, 2, 2, 2, 8, -1},
                      GradCase{2, 2, 2, 4, 12, -1}, GradCase{2, 2, 2, 8, 12, -1},
                      GradCase{2, 3, 3, 1, 8, 0}, GradCase{2, 2, 3, 2, 10, 0},
                      GradCase{2, 2, 2, 4, 12, 0}, GradCase{2, 2, 3, 8, 20, 0}));

/// Row i of a [N, ...] tensor as a [1, ...] tensor.
Tensor row_of(const Tensor& x, std::size_t i) {
  std::vector<std::size_t> shape = x.shape();
  const std::size_t row = x.size() / shape[0];
  shape[0] = 1;
  Tensor one(shape);
  std::copy_n(x.raw() + i * row, row, one.raw());
  return one;
}

/// memcmp of row i of `batched` against the [1, ...] tensor `one`.
bool row_matches(const Tensor& batched, std::size_t i, const Tensor& one) {
  return std::memcmp(batched.raw() + i * one.size(), one.raw(),
                     one.size() * sizeof(float)) == 0;
}

TEST(Conv1dLowering, BatchedRowsMatchEachWindowsN1Forward) {
  // Shapes where batching moves the GEMM across its small/blocked cutoff.
  // The bias prefill makes C non-zero, so a path whose order differed from
  // the blocked kernel's would show up in the last bits of these rows.
  struct Shape {
    std::size_t n, cin, cout, k, t;
  };
  const Shape shapes[] = {
      {4, 8, 8, 3, 24},    // a residual block of width 8
      {3, 16, 16, 2, 16},  // Cout·T·Cin·K = 8192 at N=1
      {10, 2, 16, 3, 24},  // the first conv of a 2-feature RPTCN
  };
  Rng rng(31);
  for (const Shape& s : shapes) {
    const Tensor x = Tensor::randn({s.n, s.cin, s.t}, rng);
    const Tensor w = Tensor::randn({s.cout, s.cin, s.k}, rng);
    const Tensor b = Tensor::randn({s.cout}, rng);
    for (const std::size_t dilation : {std::size_t{1}, std::size_t{2}}) {
      const Tensor taped =
          ag::conv1d(Variable(x), Variable(w), Variable(b), dilation).value();
      const Tensor tapeless = ag::fwd::conv1d(x, w, &b, dilation);
      for (std::size_t i = 0; i < s.n; ++i) {
        const Tensor one_taped = ag::conv1d(Variable(row_of(x, i)),
                                            Variable(w), Variable(b), dilation)
                                     .value();
        const Tensor one_tapeless =
            ag::fwd::conv1d(row_of(x, i), w, &b, dilation);
        EXPECT_TRUE(row_matches(taped, i, one_taped))
            << "ag::conv1d N=" << s.n << " Cin=" << s.cin << " Cout=" << s.cout
            << " K=" << s.k << " d=" << dilation << ": row " << i
            << " differs from its window's N=1 forward";
        EXPECT_TRUE(row_matches(tapeless, i, one_tapeless))
            << "ag::fwd::conv1d N=" << s.n << " Cin=" << s.cin
            << " Cout=" << s.cout << " K=" << s.k << " d=" << dilation
            << ": row " << i << " differs from its window's N=1 forward";
      }
    }
  }
}

TEST(Conv1dLowering, BatchedDxRowsMatchEachWindowsN1Backward) {
  // dX = col2im(Wᵀ·dY): each GEMM column reads one window's dY, so each
  // window's dX must equal what its own N=1 backward computes. dW and db sum
  // over the batch and have no per-window rows.
  struct Shape {
    std::size_t n, cin, cout, k, t;
  };
  const Shape shapes[] = {
      {4, 8, 8, 3, 24},
      {3, 16, 16, 2, 16},  // dX's GEMM is 32x16x16 = 8192 at N=1
      {10, 2, 16, 3, 24},
      {4, 1, 300, 2, 6},  // dX's GEMM reduces over two k panels of Cout
  };
  Rng rng(41);
  for (const Shape& s : shapes) {
    const Tensor x = Tensor::randn({s.n, s.cin, s.t}, rng);
    const Tensor w = Tensor::randn({s.cout, s.cin, s.k}, rng);
    const Tensor b = Tensor::randn({s.cout}, rng);
    for (const std::size_t dilation : {std::size_t{1}, std::size_t{2}}) {
      const LoweringCase batch{s.n, s.cin, s.cout, s.k, dilation, s.t, -1};
      const LoweringCase single{1, s.cin, s.cout, s.k, dilation, s.t, -1};
      const Tensor dy = Tensor::randn({s.n, s.cout, s.t}, rng);
      const ConvRun batched = run_conv(batch, x, w, b, dy);
      for (std::size_t i = 0; i < s.n; ++i) {
        const ConvRun one =
            run_conv(single, row_of(x, i), w, b, row_of(dy, i));
        EXPECT_TRUE(row_matches(batched.dx, i, one.dx))
            << "N=" << s.n << " Cin=" << s.cin << " Cout=" << s.cout
            << " K=" << s.k << " d=" << dilation << ": dX of window " << i
            << " differs from its N=1 backward";
      }
    }
  }
}

TEST(LinearBatchInvariance, RowsMatchEachRowsN1Forward) {
  // 300 inputs span two k panels. At N=1 the GEMM is small (300 fmas), at
  // N=40 it is blocked; each row must round the same either way.
  Rng rng(37);
  const Tensor x = Tensor::randn({40, 300}, rng);
  const Variable w(Tensor::randn({1, 300}, rng));
  const Variable b(Tensor::randn({1}, rng));
  const Tensor batched = ag::linear(Variable(x), w, b).value();
  for (std::size_t i = 0; i < x.dim(0); ++i) {
    const Tensor one = ag::linear(Variable(row_of(x, i)), w, b).value();
    EXPECT_TRUE(row_matches(batched, i, one))
        << "row " << i << " differs from its N=1 forward";
  }
}

}  // namespace
}  // namespace rptcn
