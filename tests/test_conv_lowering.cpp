// Parity tests for the im2col+GEMM conv1d lowering against the direct
// loops, across the dilation/kernel/padding grid the RPTCN stack uses.
// Both paths compute the same convolution and may differ only in float
// summation order, so forward values and all three gradients must agree
// to allclose tolerance, and the lowered path must pass finite-difference
// gradcheck on its own. The dispatch tests pin the shape-only GEMM-vs-direct
// decision, including ag::SingleWindowConvDispatch (serving's batch-invariant
// N=1 decision); the direct-kernel test checks that a batched direct call,
// forked or serial, reproduces each window's own call bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

using ag::Conv1dImpl;

/// Pins one conv1d implementation for the test body and restores the
/// default dispatch on teardown, so test order never leaks a forced path.
class ImplGuard {
 public:
  explicit ImplGuard(Conv1dImpl impl) { ag::set_conv1d_impl(impl); }
  ~ImplGuard() { ag::set_conv1d_impl(Conv1dImpl::kAuto); }
  ImplGuard(const ImplGuard&) = delete;
  ImplGuard& operator=(const ImplGuard&) = delete;
};

struct LoweringCase {
  std::size_t n, cin, cout, k, dilation, t;
  std::ptrdiff_t left_pad;  // -1 = causal
};

struct ConvRun {
  Tensor y, dx, dw, db;
};

/// Forward + backward under a pinned implementation, seeding backward with
/// a fixed dy so both paths push identical cotangents.
ConvRun run_conv(Conv1dImpl impl, const LoweringCase& c, const Tensor& xv,
                 const Tensor& wv, const Tensor& bv, const Tensor& dy) {
  ImplGuard guard(impl);
  Variable x(xv, /*requires_grad=*/true);
  Variable w(wv, /*requires_grad=*/true);
  Variable b(bv, /*requires_grad=*/true);
  Variable y = ag::conv1d(x, w, b, c.dilation, c.left_pad);
  y.backward(dy);
  return {y.value(), x.grad(), w.grad(), b.grad()};
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
  const std::size_t t_out = c.t + (c.left_pad < 0 ? (c.k - 1) * c.dilation
                                                  : static_cast<std::size_t>(
                                                        c.left_pad)) -
                            (c.k - 1) * c.dilation;
  const Tensor dy = Tensor::randn({c.n, c.cout, t_out}, rng);

  const ConvRun direct = run_conv(Conv1dImpl::kDirect, c, xv, wv, bv, dy);
  const ConvRun gemm = run_conv(Conv1dImpl::kIm2col, c, xv, wv, bv, dy);

  EXPECT_TRUE(allclose(direct.y, gemm.y)) << "forward mismatch";
  EXPECT_TRUE(allclose(direct.dx, gemm.dx)) << "dX mismatch";
  EXPECT_TRUE(allclose(direct.dw, gemm.dw, 1e-4f, 1e-3f)) << "dW mismatch";
  EXPECT_TRUE(allclose(direct.db, gemm.db)) << "db mismatch";
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
/// with the direct loops) over the same grid corners.
struct GradCase {
  std::size_t cin, cout, k, dilation, t;
  std::ptrdiff_t left_pad;
};

class Conv1dLoweringGrad : public ::testing::TestWithParam<GradCase> {};

TEST_P(Conv1dLoweringGrad, GradcheckPassesWithIm2colForced) {
  const auto c = GetParam();
  ImplGuard guard(Conv1dImpl::kIm2col);
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

TEST(Conv1dLoweringDispatch, AutoLowersPaperShapeAndKeepsTinyDirect) {
  // kAuto must route the paper's residual-block shape through the GEMM
  // path and a tiny shape through the direct loops. The per-path call
  // counters are the observable: each forward bumps exactly one of them.
  ag::set_conv1d_impl(Conv1dImpl::kAuto);
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& gemm_calls = obs::metrics().counter("kernel/conv1d_gemm_calls");
  auto& direct_calls = obs::metrics().counter("kernel/conv1d_direct_calls");
  Rng rng(7);
  {
    const std::uint64_t g0 = gemm_calls.value();
    Variable x(Tensor::randn({32, 16, 24}, rng));
    Variable w(Tensor::randn({16, 16, 3}, rng));
    Variable y = ag::conv1d(x, w, Variable{}, 2);
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{32, 16, 24}));
    EXPECT_EQ(gemm_calls.value(), g0 + 1) << "paper shape must lower to GEMM";
  }
  {
    const std::uint64_t d0 = direct_calls.value();
    Variable x(Tensor::randn({1, 1, 4}, rng));
    Variable w(Tensor::randn({1, 1, 2}, rng));
    Variable y = ag::conv1d(x, w, Variable{}, 1);
    EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 4}));
    EXPECT_EQ(direct_calls.value(), d0 + 1) << "tiny shape must stay direct";
  }
  obs::set_enabled(obs_was_enabled);
}

// Residual-block shape whose kAuto decision flips with the batch: one window
// (2*1*8*8*3*24 = 9216 flops) stays below the GEMM cutoff, four windows cross
// it.
constexpr std::size_t kFlipC = 8, kFlipK = 3, kFlipT = 24, kFlipN = 4;

bool flip_shape_uses_gemm(std::size_t n) {
  return ag::fwd::conv1d_uses_gemm(n, kFlipC, kFlipC, kFlipK, kFlipT);
}

/// Rows [i, i+1) of a [N, C, T] tensor as a [1, C, T] tensor.
Tensor row_of(const Tensor& x, std::size_t i) {
  const std::size_t row = x.dim(1) * x.dim(2);
  Tensor one({1, x.dim(1), x.dim(2)});
  std::copy_n(x.raw() + i * row, row, one.raw());
  return one;
}

TEST(Conv1dLoweringDispatch, SingleWindowScopePinsTheN1Decision) {
  ag::set_conv1d_impl(Conv1dImpl::kAuto);
  ASSERT_FALSE(flip_shape_uses_gemm(1));
  ASSERT_TRUE(flip_shape_uses_gemm(kFlipN));
  {
    ag::SingleWindowConvDispatch outer;
    EXPECT_FALSE(flip_shape_uses_gemm(kFlipN)) << "scope must decide as N=1";
    {
      ag::SingleWindowConvDispatch inner;
      EXPECT_FALSE(flip_shape_uses_gemm(kFlipN));
    }
    EXPECT_FALSE(flip_shape_uses_gemm(kFlipN))
        << "closing a nested scope must keep the outer one alive";
    // Explicit implementation pins win over the scope either way.
    {
      ImplGuard gemm(Conv1dImpl::kIm2col);
      EXPECT_TRUE(flip_shape_uses_gemm(kFlipN));
    }
    {
      ImplGuard direct(Conv1dImpl::kDirect);
      EXPECT_FALSE(ag::fwd::conv1d_uses_gemm(32, 16, 16, 3, 24));
    }
  }
  EXPECT_TRUE(flip_shape_uses_gemm(kFlipN))
      << "the true-batch decision must come back once the scope closes";
}

TEST(Conv1dLoweringDispatch, SingleWindowScopeIsThreadLocal) {
  ag::set_conv1d_impl(Conv1dImpl::kAuto);
  bool other_thread_gemm = false;
  {
    ag::SingleWindowConvDispatch pinned_here;
    std::thread other([&] { other_thread_gemm = flip_shape_uses_gemm(kFlipN); });
    other.join();
    EXPECT_FALSE(flip_shape_uses_gemm(kFlipN));
  }
  EXPECT_TRUE(other_thread_gemm) << "a scope leaked into another thread";

  bool pinned_there = true;
  std::thread pinning([&] {
    ag::SingleWindowConvDispatch scope;
    pinned_there = !flip_shape_uses_gemm(kFlipN);
  });
  pinning.join();
  EXPECT_TRUE(pinned_there);
  EXPECT_TRUE(flip_shape_uses_gemm(kFlipN))
      << "another thread's scope pinned this one";
}

TEST(Conv1dLoweringDispatch, BatchedRowsUnderScopeMatchEachWindowsN1Forward) {
  // Under the scope a coalesced batch runs the direct loops its windows run
  // alone (the per-path counters show which), so every row reproduces its
  // window's N=1 forward bit-for-bit.
  ag::set_conv1d_impl(Conv1dImpl::kAuto);
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& gemm_calls = obs::metrics().counter("kernel/conv1d_gemm_calls");
  auto& direct_calls = obs::metrics().counter("kernel/conv1d_direct_calls");
  Rng rng(31);
  const Variable x(Tensor::randn({kFlipN, kFlipC, kFlipT}, rng));
  const Variable w(Tensor::randn({kFlipC, kFlipC, kFlipK}, rng));
  const Variable b(Tensor::randn({kFlipC}, rng));
  const std::size_t dilation = 2;

  const std::uint64_t g0 = gemm_calls.value();
  (void)ag::conv1d(x, w, b, dilation);
  EXPECT_EQ(gemm_calls.value(), g0 + 1) << "unpinned batch must lower to GEMM";

  Tensor batched;
  {
    ag::SingleWindowConvDispatch scope;
    const std::uint64_t d0 = direct_calls.value();
    batched = ag::conv1d(x, w, b, dilation).value();
    EXPECT_EQ(direct_calls.value(), d0 + 1) << "pinned batch must stay direct";
  }
  const std::size_t row = kFlipC * kFlipT;
  for (std::size_t i = 0; i < kFlipN; ++i) {
    const Tensor one =
        ag::conv1d(Variable(row_of(x.value(), i)), w, b, dilation).value();
    EXPECT_EQ(std::memcmp(batched.raw() + i * row, one.raw(),
                          row * sizeof(float)),
              0)
        << "row " << i << " differs from its window's N=1 forward";
  }
  obs::set_enabled(obs_was_enabled);
}

TEST(Conv1dLoweringDirect, ForkedDirectKernelMatchesPerWindowCalls) {
  // Pinned direct forks an OpenMP region over (window, channel) when one
  // window reaches the GEMM flop cutoff (16 channels here) and runs serially
  // below it (kFlipC channels). Either way, every row of the batched call
  // must match its window's own call bit-for-bit.
  ASSERT_FALSE(ag::fwd::conv1d_uses_gemm(1, kFlipC, kFlipC, kFlipK, kFlipT));
  ASSERT_TRUE(ag::fwd::conv1d_uses_gemm(1, 16, 16, kFlipK, kFlipT));
  ImplGuard direct(Conv1dImpl::kDirect);
  Rng rng(43);
  const std::size_t n = 6;
  for (const std::size_t c : {kFlipC, std::size_t{16}}) {
    const Tensor x = Tensor::randn({n, c, kFlipT}, rng);
    const Tensor w = Tensor::randn({c, c, kFlipK}, rng);
    const Tensor b = Tensor::randn({c}, rng);
    for (const std::size_t dilation : {std::size_t{1}, std::size_t{4}}) {
      const Tensor batched = ag::fwd::conv1d(x, w, &b, dilation);
      const std::size_t row = c * kFlipT;
      for (std::size_t i = 0; i < n; ++i) {
        const Tensor one = ag::fwd::conv1d(row_of(x, i), w, &b, dilation);
        EXPECT_EQ(std::memcmp(batched.raw() + i * row, one.raw(),
                              row * sizeof(float)),
                  0)
            << "channels " << c << " dilation " << dilation << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rptcn
