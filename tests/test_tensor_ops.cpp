#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/dispatch.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

TEST(TensorOps, ElementwiseBinary) {
  const Tensor a = Tensor::from({3}, {1, 2, 3});
  const Tensor b = Tensor::from({3}, {4, 5, 6});
  EXPECT_TRUE(allclose(add(a, b), Tensor::from({3}, {5, 7, 9})));
  EXPECT_TRUE(allclose(sub(a, b), Tensor::from({3}, {-3, -3, -3})));
  EXPECT_TRUE(allclose(mul(a, b), Tensor::from({3}, {4, 10, 18})));
  EXPECT_TRUE(allclose(div(b, a), Tensor::from({3}, {4, 2.5, 2})));
}

TEST(TensorOps, BinaryRejectsShapeMismatch) {
  EXPECT_THROW(add(Tensor({2}), Tensor({3})), CheckError);
  EXPECT_THROW(mul(Tensor({2, 2}), Tensor({4})), CheckError);
}

TEST(TensorOps, ScalarOps) {
  const Tensor a = Tensor::from({2}, {1, -2});
  EXPECT_TRUE(allclose(add_scalar(a, 3.0f), Tensor::from({2}, {4, 1})));
  EXPECT_TRUE(allclose(mul_scalar(a, -2.0f), Tensor::from({2}, {-2, 4})));
  EXPECT_TRUE(allclose(neg(a), Tensor::from({2}, {-1, 2})));
}

TEST(TensorOps, Axpy) {
  const Tensor x = Tensor::from({2}, {1, 2});
  Tensor y = Tensor::from({2}, {10, 20});
  axpy(0.5f, x, y);
  EXPECT_TRUE(allclose(y, Tensor::from({2}, {10.5, 21})));
}

TEST(TensorOps, ScaleAndAddInplace) {
  Tensor y = Tensor::from({2}, {2, 4});
  scale_inplace(y, 0.5f);
  add_inplace(y, Tensor::from({2}, {1, 1}));
  EXPECT_TRUE(allclose(y, Tensor::from({2}, {2, 3})));
}

TEST(TensorOps, UnaryMaps) {
  const Tensor a = Tensor::from({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_TRUE(allclose(relu(a), Tensor::from({3}, {0, 0, 2})));
  EXPECT_NEAR(sigmoid(a)[0], 1.0f / (1.0f + std::exp(1.0f)), 1e-6);
  EXPECT_NEAR(tanh_t(a)[2], std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(exp_t(a)[2], std::exp(2.0f), 1e-4);
  EXPECT_TRUE(allclose(square(a), Tensor::from({3}, {1, 0, 4})));
  EXPECT_TRUE(allclose(abs_t(a), Tensor::from({3}, {1, 0, 2})));
  EXPECT_NEAR(sqrt_t(Tensor::from({1}, {9}))[0], 3.0f, 1e-6);
}

TEST(TensorOps, Reductions) {
  const Tensor a = Tensor::from({2, 2}, {1, 2, 3, -4});
  EXPECT_FLOAT_EQ(sum(a), 2.0f);
  EXPECT_FLOAT_EQ(mean(a), 0.5f);
  EXPECT_FLOAT_EQ(max_abs(a), 4.0f);
  EXPECT_NEAR(norm2(a), std::sqrt(30.0f), 1e-5);
}

TEST(TensorOps, RowColSums) {
  const Tensor a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(allclose(sum_rows(a), Tensor::from({2}, {6, 15})));
  EXPECT_TRUE(allclose(sum_cols(a), Tensor::from({3}, {5, 7, 9})));
  EXPECT_THROW(sum_rows(Tensor({3})), CheckError);
}

// Naive O(n^3) reference for GEMM validation.
Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk)
        s += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      c.at(i, j) = static_cast<float>(s);
    }
  return c;
}

TEST(TensorOps, MatmulKnownValues) {
  const Tensor a = Tensor::from({2, 2}, {1, 2, 3, 4});
  const Tensor b = Tensor::from({2, 2}, {5, 6, 7, 8});
  EXPECT_TRUE(allclose(matmul(a, b), Tensor::from({2, 2}, {19, 22, 43, 50})));
}

TEST(TensorOps, MatmulRejectsMismatch) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})), CheckError);
  EXPECT_THROW(matmul(Tensor({6}), Tensor({6, 1})), CheckError);
}

class MatmulSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  const Tensor a = Tensor::randn({static_cast<std::size_t>(m),
                                  static_cast<std::size_t>(k)}, rng);
  const Tensor b = Tensor::randn({static_cast<std::size_t>(k),
                                  static_cast<std::size_t>(n)}, rng);
  EXPECT_TRUE(allclose(matmul(a, b), matmul_naive(a, b), 1e-4f, 1e-4f));
}

TEST_P(MatmulSweep, TransposedVariantsConsistent) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  const Tensor a = Tensor::randn({static_cast<std::size_t>(m),
                                  static_cast<std::size_t>(k)}, rng);
  const Tensor b = Tensor::randn({static_cast<std::size_t>(k),
                                  static_cast<std::size_t>(n)}, rng);
  // matmul_tn(X, Y) == X^T Y and matmul_nt(X, Y) == X Y^T.
  EXPECT_TRUE(allclose(matmul_tn(a, matmul_naive(a, b)),
                       matmul(transpose2d(a), matmul_naive(a, b)), 1e-3f,
                       1e-3f));
  EXPECT_TRUE(
      allclose(matmul_nt(a, transpose2d(b)), matmul(a, b), 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulSweep,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{2, 3, 4},
                                           std::tuple{7, 5, 3},
                                           std::tuple{16, 16, 16},
                                           std::tuple{33, 17, 9},
                                           std::tuple{64, 8, 64}));

TEST(TensorOps, Transpose2d) {
  const Tensor a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor t = transpose2d(a);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 2u);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
  EXPECT_FLOAT_EQ(t.at(0, 1), 4.0f);
}

TEST(TensorOps, Matvec) {
  const Tensor a = Tensor::from({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor x = Tensor::from({3}, {1, 0, -1});
  EXPECT_TRUE(allclose(matvec(a, x), Tensor::from({2}, {-2, -2})));
  EXPECT_THROW(matvec(a, Tensor({2})), CheckError);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(7);
  const Tensor a = Tensor::randn({4, 9}, rng, 0.0f, 3.0f);
  const Tensor s = softmax_lastdim(a);
  for (std::size_t i = 0; i < 4; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(TensorOps, SoftmaxStableForLargeLogits) {
  const Tensor a = Tensor::from({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  const Tensor s = softmax_lastdim(a);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(s.at(0, j), 1.0f / 3.0f, 1e-6);
}

TEST(TensorOps, SoftmaxRank3) {
  Rng rng(9);
  const Tensor a = Tensor::randn({2, 3, 5}, rng);
  const Tensor s = softmax_lastdim(a);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t c = 0; c < 3; ++c) {
      double total = 0.0;
      for (std::size_t t = 0; t < 5; ++t) total += s.at(i, c, t);
      EXPECT_NEAR(total, 1.0, 1e-5);
    }
}

TEST(TensorOps, AllcloseBehaviour) {
  const Tensor a = Tensor::from({2}, {1.0f, 2.0f});
  EXPECT_TRUE(allclose(a, Tensor::from({2}, {1.0f + 1e-6f, 2.0f})));
  EXPECT_FALSE(allclose(a, Tensor::from({2}, {1.1f, 2.0f})));
  EXPECT_FALSE(allclose(a, Tensor({3})));
}

// ---------------------------------------------------------------------------
// Exact-match tests for the GEMM. The reference mirrors the one documented
// reduction order — per C element: an fma chain from zero over each k panel
// of kKC (tensor/dispatch.h) elements, k ascending, and each panel's sum
// added to C in ascending panel order. It reads the same kKC constant as
// both GEMM paths, small and blocked, so it holds for every shape.
// ---------------------------------------------------------------------------

/// c[i*n+j] += sum_p av(i,p)·bv(p,j) in the GEMM's order; c holds zeros or a
/// bias to accumulate onto.
template <class FA, class FB>
void gemm_reference(std::size_t m, std::size_t n, std::size_t k, FA av, FB bv,
                    float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float total = c[i * n + j];
      for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
        const std::size_t kc = std::min(kKC, k - p0);
        float acc = 0.0f;
        for (std::size_t p = p0; p < p0 + kc; ++p)
          acc = std::fma(av(i, p), bv(p, j), acc);
        total += acc;
      }
      c[i * n + j] = total;
    }
  }
}

void expect_bit_equal(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got.raw()[i], want.raw()[i]) << "element " << i;
}

// Shapes chosen to hit every dispatch/edge case: scalar, odd non-multiples
// of the 8x8 micro-tile, exact tile multiples, the small->blocked threshold,
// and k > 256 (multi-panel reduction) on both the blocked and the small path.
const std::vector<std::array<std::size_t, 3>> kGemmShapes = {
    {1, 1, 1},    {3, 5, 129},  {64, 64, 64},  {13, 9, 7},
    {65, 33, 70}, {8, 8, 600},  {31, 257, 40}, {128, 17, 300},
    {2, 3, 600},  {1, 1, 300},
};

TEST(TensorOps, MatmulBitExactVsReference) {
  for (const auto& [m, n, k] : kGemmShapes) {
    Rng rng(11);
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor want({m, n});
    gemm_reference(
        m, n, k, [&](std::size_t i, std::size_t p) { return a.at(i, p); },
        [&](std::size_t p, std::size_t j) { return b.at(p, j); }, want.raw());
    expect_bit_equal(matmul(a, b), want);
  }
}

TEST(TensorOps, MatmulTnBitExactVsReference) {
  for (const auto& [m, n, k] : kGemmShapes) {
    Rng rng(12);
    // matmul_tn(A[k,m], B[k,n]) -> C[m,n] = A^T B; reduction over k.
    const Tensor a = Tensor::randn({k, m}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor want({m, n});
    gemm_reference(
        m, n, k, [&](std::size_t i, std::size_t p) { return a.at(p, i); },
        [&](std::size_t p, std::size_t j) { return b.at(p, j); }, want.raw());
    expect_bit_equal(matmul_tn(a, b), want);
  }
}

TEST(TensorOps, MatmulNtBitExactVsReference) {
  for (const auto& [m, n, k] : kGemmShapes) {
    Rng rng(13);
    // matmul_nt(A[m,k], B[n,k]) -> C[m,n] = A B^T; reduction over k.
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({n, k}, rng);
    Tensor want({m, n});
    gemm_reference(
        m, n, k, [&](std::size_t i, std::size_t p) { return a.at(i, p); },
        [&](std::size_t p, std::size_t j) { return b.at(j, p); }, want.raw());
    expect_bit_equal(matmul_nt(a, b), want);
  }
}

// A small shape accumulating onto a non-zero C (a bias prefill, as the conv
// forward does) must add its panel sum to C, not start its fma chain at C.
TEST(TensorOps, SmallGemmAccumulatesOntoBiasInBlockedOrder) {
  const std::size_t m = 16, n = 16, k = 32;
  ASSERT_FALSE(gemm_uses_blocked(m, n, k));
  Rng rng(17);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor bias = Tensor::randn({m, n}, rng);
  Tensor got = bias;
  gemm_accumulate(m, n, k, a.raw(), k, false, b.raw(), n, false, got.raw());
  Tensor want = bias;
  gemm_reference(
      m, n, k, [&](std::size_t i, std::size_t p) { return a.at(i, p); },
      [&](std::size_t p, std::size_t j) { return b.at(p, j); }, want.raw());
  expect_bit_equal(got, want);
}

// With one order on both paths, an element's bits depend only on its row of
// A, its column of B and its starting C, never on the product's shape: each
// row of a blocked product, recomputed alone as a small product, must read
// the same. Covers the transposed operands the conv dX and dW GEMMs use.
TEST(TensorOps, GemmRowsMatchTheirOwnSmallShapeProduct) {
  const std::size_t m = 40, n = 24, k = 300;
  ASSERT_TRUE(gemm_uses_blocked(m, n, k));
  ASSERT_FALSE(gemm_uses_blocked(1, n, k));
  Rng rng(23);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const Tensor a = Tensor::randn(ta ? std::vector<std::size_t>{k, m}
                                        : std::vector<std::size_t>{m, k},
                                     rng);
      const Tensor b = Tensor::randn(tb ? std::vector<std::size_t>{n, k}
                                        : std::vector<std::size_t>{k, n},
                                     rng);
      const Tensor bias = Tensor::randn({m, n}, rng);
      const std::size_t lda = ta ? m : k;
      const std::size_t ldb = tb ? k : n;
      Tensor full = bias;
      gemm_accumulate(m, n, k, a.raw(), lda, ta, b.raw(), ldb, tb, full.raw());
      for (std::size_t i = 0; i < m; ++i) {
        std::vector<float> row(bias.raw() + i * n, bias.raw() + (i + 1) * n);
        const float* a_row = a.raw() + (ta ? i : i * k);
        gemm_accumulate(1, n, k, a_row, lda, ta, b.raw(), ldb, tb, row.data());
        for (std::size_t j = 0; j < n; ++j)
          ASSERT_EQ(row[j], full.raw()[i * n + j])
              << "ta=" << ta << " tb=" << tb << " C(" << i << "," << j
              << ") depends on m";
      }
    }
  }
}

// The old kernel skipped k iterations where A(i,k) == 0 — a data-dependent
// branch that changed the reduction order (and thus the rounding) based on
// values. Zero-heavy inputs must now go through the identical fma chain.
TEST(TensorOps, MatmulZeroEntriesDoNotChangeReductionOrder) {
  Rng rng(14);
  Tensor a = Tensor::randn({40, 300}, rng);
  const Tensor b = Tensor::randn({300, 24}, rng);
  for (std::size_t i = 0; i < a.size(); i += 3) a.raw()[i] = 0.0f;
  Tensor want({40, 24});
  gemm_reference(
      40, 24, 300, [&](std::size_t i, std::size_t p) { return a.at(i, p); },
      [&](std::size_t p, std::size_t j) { return b.at(p, j); }, want.raw());
  expect_bit_equal(matmul(a, b), want);
}

// ---------------------------------------------------------------------------
// Prepacked-B GEMM (the graph planner bakes weight panels with gemm_pack_b
// and replays through gemm_accumulate_packed_b; the planned executor's
// bit-identity contract requires the packed call to match the unpacked one
// exactly).
// ---------------------------------------------------------------------------

TEST(TensorOps, PackedBGemmBitExactVsUnpacked) {
  // Blocked-path shapes only (the packed entry point rejects small ones),
  // covering non-multiples of the micro-tile and a multi-k-panel reduction.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {24, 40, 32}, {65, 33, 70}, {8, 8, 600}, {31, 257, 40}};
  for (const auto& [m, n, k] : shapes) {
    ASSERT_TRUE(gemm_uses_blocked(m, n, k));
    Rng rng(15);
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    const Tensor bias = Tensor::randn({m, n}, rng);

    // Both calls accumulate onto the same non-zero prefill: the two paths
    // must round identically even against a biased C.
    Tensor unpacked = bias;
    gemm_accumulate(m, n, k, a.raw(), k, false, b.raw(), n, false,
                    unpacked.raw());
    const PackedB pb = gemm_pack_b(b.raw(), n, false, k, n);
    Tensor packed = bias;
    gemm_accumulate_packed_b(m, n, k, a.raw(), k, false, pb, packed.raw());
    expect_bit_equal(packed, unpacked);

    // Transposed-B packing (linear layers store weights [out, in]).
    const Tensor bt = Tensor::randn({n, k}, rng);
    Tensor unpacked_t = bias;
    gemm_accumulate(m, n, k, a.raw(), k, false, bt.raw(), k, true,
                    unpacked_t.raw());
    const PackedB pbt = gemm_pack_b(bt.raw(), k, true, k, n);
    Tensor packed_t = bias;
    gemm_accumulate_packed_b(m, n, k, a.raw(), k, false, pbt, packed_t.raw());
    expect_bit_equal(packed_t, unpacked_t);
  }
}

TEST(TensorOps, PackedBGemmRejectsSmallShapesAndMismatchedPacks) {
  Rng rng(16);
  const Tensor a = Tensor::randn({4, 4}, rng);
  const Tensor b = Tensor::randn({4, 4}, rng);
  Tensor c({4, 4});
  ASSERT_FALSE(gemm_uses_blocked(4, 4, 4));
  const PackedB pb = gemm_pack_b(b.raw(), 4, false, 4, 4);
  // Small shapes never pack B (the small-shape kernel reads it in place),
  // so a pack offered for one is a planner bug and is refused.
  EXPECT_THROW(
      gemm_accumulate_packed_b(4, 4, 4, a.raw(), 4, false, pb, c.raw()),
      CheckError);

  // A pack for the wrong logical shape is rejected before any arithmetic.
  const Tensor big = Tensor::randn({64, 64}, rng);
  Tensor cb({64, 64});
  EXPECT_THROW(gemm_accumulate_packed_b(64, 64, 64, big.raw(), 64, false, pb,
                                        cb.raw()),
               CheckError);
}

// ---------------------------------------------------------------------------
// OpenMP fan-out: a blocked GEMM forks a team only when it has more than
// one kMC (64) row block for the team to share.
// ---------------------------------------------------------------------------

std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

/// Runs a one-row-block GEMM through both blocked entry points and exits
/// with 0 iff the process has as many threads after them as before.
[[noreturn]] void exit_with_threads_forked_by_one_row_block_gemm() {
  // The fleet's batch-10 conv: [16, 48] x [48, 240].
  constexpr std::size_t m = 16, n = 240, k = 48;
  Rng rng(17);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c({m, n});
  const std::size_t before = thread_count();
  gemm_accumulate(m, n, k, a.raw(), k, false, b.raw(), n, false, c.raw());
  const PackedB pb = gemm_pack_b(b.raw(), n, false, k, n);
  gemm_accumulate_packed_b(m, n, k, a.raw(), k, false, pb, c.raw());
  const std::size_t after = thread_count();
  std::fprintf(stderr, "threads: %zu before, %zu after\n", before, after);
  std::_Exit(after == before ? 0 : 1);
}

TEST(TensorOps, OneRowBlockGemmForksNoOpenMpTeam) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  if (omp_get_max_threads() == 1) GTEST_SKIP() << "OpenMP allows one thread";
  if (!std::filesystem::is_directory("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  ASSERT_TRUE(kernel_parallelism_allowed());
  // 184,320 multiply-adds: past the 2^16 fan-out threshold, inside one row
  // block.
  ASSERT_TRUE(gemm_uses_blocked(16, 240, 48));
  // libgomp keeps a forked team's threads for the next region, so count in
  // a fresh process that has run no GEMM yet.
  std::string& style = ::testing::GTEST_FLAG(death_test_style);
  const std::string saved = style;
  style = "threadsafe";
  EXPECT_EXIT(exit_with_threads_forked_by_one_row_block_gemm(),
              ::testing::ExitedWithCode(0), "");
  style = saved;
#endif
}

}  // namespace
}  // namespace rptcn
