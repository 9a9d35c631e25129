// Kernel-dispatch parity wall (tensor/dispatch.h).
//
// The dispatch layer promises that every tier — scalar, avx2, avx512 — is
// BIT-IDENTICAL, not merely close: same fma chains, same evaluation order,
// same zero-padded edge handling. This suite enforces that promise bitwise
// on every kernel in the KernelTable, across randomized shapes that cover
// full tiles AND remainder tails for every tier's micro-tile width (8 for
// scalar/avx2, 16 for avx512), plus the tier-resolution rules behind
// RPTCN_FORCE_ARCH.
//
// Tiers the host cannot run (or that were not compiled in) are skipped per
// test; scalar is always present, so the suite is meaningful on any
// machine. ctest runs each TEST in its own process, so the arch-switching
// test hooks never leak into other suites; ArchGuard restores the tier
// within this process anyway.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"
#include "graph/plan.h"
#include "nn/rptcn_net.h"
#include "serve/session.h"
#include "tensor/dispatch.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

/// Every tier this binary can actually execute here, ascending. Scalar is
/// always first; a tier whose table was not compiled in (or that cpuid
/// rejects) is left out.
std::vector<KernelArch> available_tiers() {
  std::vector<KernelArch> tiers;
  const KernelArch best = best_supported_arch();
  for (KernelArch arch :
       {KernelArch::kScalar, KernelArch::kAvx2, KernelArch::kAvx512}) {
    if (arch > best) continue;
    try {
      set_kernel_arch_for_testing(arch);  // throws if not compiled in
      tiers.push_back(arch);
    } catch (const CheckError&) {
    }
  }
  set_kernel_arch_for_testing(best);
  return tiers;
}

/// Restores the active tier on scope exit so a failing ASSERT cannot leave
/// the process on a forced tier.
struct ArchGuard {
  KernelArch saved = kernel_arch();
  ~ArchGuard() { set_kernel_arch_for_testing(saved); }
};

void fill_normal(std::vector<float>& v, Rng& rng, double sigma = 1.0) {
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, sigma));
}

/// Bitwise comparison: NaN == NaN, +0 != -0. Exactly the contract the
/// dispatch layer makes.
void expect_bits_equal(const float* got, const float* want, std::size_t n,
                       KernelArch arch, const char* what) {
  if (std::memcmp(got, want, n * sizeof(float)) == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t g, w;
    std::memcpy(&g, &got[i], 4);
    std::memcpy(&w, &want[i], 4);
    ASSERT_EQ(g, w) << what << ": " << kernel_arch_name(arch)
                    << " diverges from scalar at element " << i << " ("
                    << got[i] << " vs " << want[i] << ")";
  }
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want, KernelArch arch,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size());
  expect_bits_equal(got.data(), want.data(), got.size(), arch, what);
}

struct GemmShape {
  std::size_t m, n, k;
};

// Full tiles, sub-tile shapes, and tails around both the 8-wide and the
// 16-wide micro-tile edges; several cross the blocked-path threshold
// (m*n*k > 8192) so packing and the micro-kernel are exercised too.
const GemmShape kGemmShapes[] = {
    {1, 1, 1},    {3, 5, 7},    {8, 8, 8},     {9, 17, 33},
    {16, 16, 16}, {17, 19, 23}, {15, 31, 63},  {32, 8, 70},
    {33, 47, 65}, {64, 64, 64}, {5, 129, 3},   {128, 1, 128},
    {24, 40, 96}, {65, 16, 16}, {16, 65, 129},
};

TEST(KernelDispatch, TablesAreFullyPopulated) {
  ArchGuard guard;
  for (KernelArch arch : available_tiers()) {
    set_kernel_arch_for_testing(arch);
    const KernelTable& kt = kernels();
    EXPECT_EQ(kt.arch, arch);
    EXPECT_GT(kt.mr, 0u);
    EXPECT_GT(kt.nr, 0u);
    EXPECT_NE(kt.micro_kernel, nullptr);
    EXPECT_NE(kt.pack_a, nullptr);
    EXPECT_NE(kt.pack_b, nullptr);
    EXPECT_NE(kt.gemm_small, nullptr);
    EXPECT_NE(kt.vexp, nullptr);
    EXPECT_NE(kt.vtanh, nullptr);
    EXPECT_NE(kt.im2col, nullptr);
  }
}

/// gemm_accumulate of shape s, for every operand layout, on every tier:
/// each tier must reproduce scalar's bits.
void expect_gemm_parity(const GemmShape& s,
                        const std::vector<KernelArch>& tiers, Rng& rng) {
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      std::vector<float> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n);
      fill_normal(a, rng);
      fill_normal(b, rng);
      fill_normal(c0, rng);  // accumulate onto a bias, not zeros
      const std::size_t lda = ta ? s.m : s.k;
      const std::size_t ldb = tb ? s.k : s.n;

      std::vector<float> want;
      for (KernelArch arch : tiers) {
        set_kernel_arch_for_testing(arch);
        std::vector<float> c = c0;
        gemm_accumulate(s.m, s.n, s.k, a.data(), lda, ta, b.data(), ldb, tb,
                        c.data());
        if (arch == KernelArch::kScalar)
          want = std::move(c);
        else
          expect_bits_equal(c, want, arch, "gemm_accumulate");
      }
    }
  }
}

TEST(KernelDispatch, GemmBitParityAcrossTiers) {
  ArchGuard guard;
  const auto tiers = available_tiers();
  Rng rng(101);
  for (const GemmShape& s : kGemmShapes) expect_gemm_parity(s, tiers, rng);
}

TEST(KernelDispatch, SmallGemmPanelsBitParityAcrossTiers) {
  // Small shapes whose k spans more than one kKC panel: every tier's small
  // kernel must close each panel and add its sum to C exactly as scalar
  // does.
  ArchGuard guard;
  const auto tiers = available_tiers();
  Rng rng(151);
  const GemmShape shapes[] = {
      {1, 1, 300}, {2, 3, 600}, {3, 5, 513}, {1, 17, 257}, {1, 16, 512}};
  for (const GemmShape& s : shapes) {
    ASSERT_FALSE(gemm_uses_blocked(s.m, s.n, s.k));
    expect_gemm_parity(s, tiers, rng);
  }
}

TEST(KernelDispatch, PackedBReplayMatchesUnpackedPerTier) {
  ArchGuard guard;
  Rng rng(202);
  // Blocked-path shapes only (gemm_uses_blocked), with n both on and off
  // every panel-width multiple.
  const GemmShape shapes[] = {
      {17, 9, 70}, {33, 16, 64}, {16, 65, 129}, {64, 24, 40}, {9, 127, 33}};
  for (KernelArch arch : available_tiers()) {
    set_kernel_arch_for_testing(arch);
    for (const GemmShape& s : shapes) {
      ASSERT_TRUE(gemm_uses_blocked(s.m, s.n, s.k));
      std::vector<float> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n);
      fill_normal(a, rng);
      fill_normal(b, rng);
      fill_normal(c0, rng);

      std::vector<float> unpacked = c0;
      gemm_accumulate(s.m, s.n, s.k, a.data(), s.k, false, b.data(), s.n,
                      false, unpacked.data());

      const PackedB pb = gemm_pack_b(b.data(), s.n, false, s.k, s.n);
      EXPECT_EQ(pb.nr, kernels().nr);
      std::vector<float> replayed = c0;
      gemm_accumulate_packed_b(s.m, s.n, s.k, a.data(), s.k, false, pb,
                               replayed.data());
      expect_bits_equal(replayed, unpacked, arch, "packed-B replay");
    }
  }
}

TEST(KernelDispatch, PackedBRefusesReplayAcrossTierWidthChange) {
  ArchGuard guard;
  const auto tiers = available_tiers();
  // Needs two tiers with different panel widths (scalar/avx2 pack 8-wide,
  // avx512 packs 16-wide).
  KernelArch wide = KernelArch::kScalar;
  for (KernelArch arch : tiers) {
    set_kernel_arch_for_testing(arch);
    if (kernels().nr != 8) wide = arch;
  }
  if (wide == KernelArch::kScalar)
    GTEST_SKIP() << "no tier with a distinct panel width on this host";

  set_kernel_arch_for_testing(KernelArch::kScalar);
  std::vector<float> a(17 * 70, 0.5f), b(70 * 9, 0.25f), c(17 * 9, 0.0f);
  const PackedB pb = gemm_pack_b(b.data(), 9, false, 70, 9);
  set_kernel_arch_for_testing(wide);
  EXPECT_THROW(gemm_accumulate_packed_b(17, 9, 70, a.data(), 70, false, pb,
                                        c.data()),
               CheckError);
}

/// Elementwise inputs: normal draws with edge values spliced in at varying
/// offsets, so specials land in both the vector body and the scalar tail as
/// n changes.
std::vector<float> elementwise_input(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  fill_normal(v, rng, 3.0);
  const float specials[] = {0.0f,
                            -0.0f,
                            88.0f,
                            -87.0f,
                            90.0f,   // exp overflow -> +inf
                            -100.0f, // exp underflow -> 0
                            20.0f,   // tanh saturates to 1
                            0.625f,  // tanh split point
                            -0.625f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t i = 0; i < n && i < std::size(specials); ++i)
    v[(i * 7 + n / 3) % n] = specials[i];
  return v;
}

TEST(KernelDispatch, ElementwiseBitParityAcrossTiers) {
  ArchGuard guard;
  const auto tiers = available_tiers();
  Rng rng(303);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{31}, std::size_t{33},
                              std::size_t{40}, std::size_t{257}}) {
    const std::vector<float> input = elementwise_input(n, rng);
    std::vector<float> want_exp, want_tanh, want_sig;
    for (KernelArch arch : tiers) {
      set_kernel_arch_for_testing(arch);
      std::vector<float> e = input, t = input, s = input;
      kernels().vexp(e.data(), n);
      kernels().vtanh(t.data(), n);
      sigmoid_inplace(s.data(), n);
      if (arch == KernelArch::kScalar) {
        want_exp = std::move(e);
        want_tanh = std::move(t);
        want_sig = std::move(s);
      } else {
        expect_bits_equal(e, want_exp, arch, "vexp");
        expect_bits_equal(t, want_tanh, arch, "vtanh");
        expect_bits_equal(s, want_sig, arch, "sigmoid");
      }
    }
  }
}

TEST(KernelDispatch, SoftmaxRowsBitParityAcrossTiers) {
  ArchGuard guard;
  const auto tiers = available_tiers();
  Rng rng(404);
  for (const std::size_t last : {std::size_t{1}, std::size_t{7},
                                 std::size_t{16}, std::size_t{23},
                                 std::size_t{64}}) {
    const std::size_t rows = 5;
    std::vector<float> in(rows * last);
    fill_normal(in, rng, 4.0);
    std::vector<float> want(rows * last);
    for (KernelArch arch : tiers) {
      set_kernel_arch_for_testing(arch);
      std::vector<float> out(rows * last);
      softmax_rows(in.data(), out.data(), rows, last);
      if (arch == KernelArch::kScalar)
        want = std::move(out);
      else
        expect_bits_equal(out, want, arch, "softmax_rows");
    }
  }
}

TEST(KernelDispatch, ExpEdgeSemanticsPerTier) {
  ArchGuard guard;
  for (KernelArch arch : available_tiers()) {
    set_kernel_arch_for_testing(arch);
    float v[6] = {90.0f, -100.0f, 0.0f,
                  std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity()};
    kernels().vexp(v, 6);
    EXPECT_TRUE(std::isinf(v[0]) && v[0] > 0) << kernel_arch_name(arch);
    EXPECT_EQ(v[1], 0.0f) << kernel_arch_name(arch);
    EXPECT_EQ(v[2], 1.0f) << kernel_arch_name(arch);
    EXPECT_TRUE(std::isnan(v[3])) << kernel_arch_name(arch);
    EXPECT_TRUE(std::isinf(v[4]) && v[4] > 0) << kernel_arch_name(arch);
    EXPECT_EQ(v[5], 0.0f) << kernel_arch_name(arch);

    float t[5] = {35.0f, -35.0f, 0.0f,
                  std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::infinity()};
    kernels().vtanh(t, 5);
    EXPECT_EQ(t[0], 1.0f) << kernel_arch_name(arch);
    EXPECT_EQ(t[1], -1.0f) << kernel_arch_name(arch);
    EXPECT_EQ(t[2], 0.0f) << kernel_arch_name(arch);
    EXPECT_TRUE(std::isnan(t[3])) << kernel_arch_name(arch);
    EXPECT_EQ(t[4], 1.0f) << kernel_arch_name(arch);
  }
}

TEST(KernelDispatch, ExpTanhTrackLibm) {
  // Accuracy spot-check for the polynomial kernels (the cross-tier tests
  // above only prove the tiers agree with each other).
  ArchGuard guard;
  Rng rng(505);
  std::vector<float> x(512);
  fill_normal(x, rng, 5.0);
  std::vector<float> e = x, t = x;
  kernels().vexp(e.data(), e.size());
  kernels().vtanh(t.data(), t.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double re = std::exp(static_cast<double>(x[i]));
    EXPECT_NEAR(e[i], re, 2e-6 * re + 1e-30) << "exp(" << x[i] << ")";
    EXPECT_NEAR(t[i], std::tanh(static_cast<double>(x[i])), 2e-6)
        << "tanh(" << x[i] << ")";
  }
}

TEST(KernelDispatch, Im2colBitParityAcrossTiers) {
  ArchGuard guard;
  const auto tiers = available_tiers();
  Rng rng(606);
  struct Cfg {
    std::size_t nc, cin, t_in, k, d, pad;
  };
  // Causal same-length configs (pad = (k-1)*d) and one valid-only config.
  const Cfg cfgs[] = {{2, 3, 20, 3, 1, 2},
                      {1, 2, 17, 5, 2, 8},
                      {3, 1, 7, 2, 1, 1},
                      {2, 4, 33, 3, 4, 8},
                      {1, 3, 16, 4, 1, 0}};
  for (const Cfg& c : cfgs) {
    const std::size_t span = (c.k - 1) * c.d;
    const std::size_t t_out = c.t_in + c.pad - span;
    std::vector<float> x(c.nc * c.cin * c.t_in);
    fill_normal(x, rng);
    const std::size_t out_n = c.cin * c.k * c.nc * t_out;
    std::vector<float> want(out_n);
    for (KernelArch arch : tiers) {
      set_kernel_arch_for_testing(arch);
      std::vector<float> patches(out_n, -1.0f);
      ag::fwd::im2col_strided(x.data(), c.cin * c.t_in, c.t_in, c.nc, c.cin,
                              c.t_in, c.k, c.d, c.pad, t_out,
                              patches.data());
      if (arch == KernelArch::kScalar)
        want = std::move(patches);
      else
        expect_bits_equal(patches, want, arch, "im2col");
    }
  }
}

TEST(KernelDispatch, ResolveArchRules) {
  const KernelArch best = best_supported_arch();
  EXPECT_EQ(resolve_arch(nullptr, best), best);
  EXPECT_EQ(resolve_arch("", best), best);
  EXPECT_EQ(resolve_arch("scalar", best), KernelArch::kScalar);
  EXPECT_EQ(resolve_arch("sse9000", best), best);  // unknown -> best (warns)
  // Forcing above the best tier clamps down instead of crashing.
  EXPECT_EQ(resolve_arch("avx512", KernelArch::kScalar), KernelArch::kScalar);
  EXPECT_EQ(resolve_arch("avx2", KernelArch::kScalar), KernelArch::kScalar);
  EXPECT_EQ(resolve_arch("avx512", KernelArch::kAvx512), KernelArch::kAvx512);
  EXPECT_EQ(resolve_arch("avx2", KernelArch::kAvx512), KernelArch::kAvx2);
}

TEST(KernelDispatch, ForceArchEnvPlumbing) {
  ArchGuard guard;
  const char* old = std::getenv("RPTCN_FORCE_ARCH");
  const std::string saved = old != nullptr ? old : "";

  ASSERT_EQ(setenv("RPTCN_FORCE_ARCH", "scalar", 1), 0);
  redetect_kernel_arch_for_testing();
  EXPECT_EQ(kernel_arch(), KernelArch::kScalar);

  ASSERT_EQ(setenv("RPTCN_FORCE_ARCH", "bogus", 1), 0);
  redetect_kernel_arch_for_testing();
  EXPECT_EQ(kernel_arch(), best_supported_arch());

  ASSERT_EQ(unsetenv("RPTCN_FORCE_ARCH"), 0);
  redetect_kernel_arch_for_testing();
  EXPECT_EQ(kernel_arch(), best_supported_arch());

  if (!saved.empty()) setenv("RPTCN_FORCE_ARCH", saved.c_str(), 1);
  redetect_kernel_arch_for_testing();
}

TEST(KernelDispatch, NamesAndProbesAreStable) {
  EXPECT_STREQ(kernel_arch_name(KernelArch::kScalar), "scalar");
  EXPECT_STREQ(kernel_arch_name(KernelArch::kAvx2), "avx2");
  EXPECT_STREQ(kernel_arch_name(KernelArch::kAvx512), "avx512");
  EXPECT_TRUE(cpu_supports(KernelArch::kScalar));
  // cpuid is monotone over the tier order.
  if (cpu_supports(KernelArch::kAvx512))
    EXPECT_TRUE(cpu_supports(KernelArch::kAvx2));
  const std::string flags = cpu_flags_string();
  EXPECT_NE(flags.find("compiled:scalar"), std::string::npos) << flags;
}

TEST(KernelDispatch, HighLevelOpsFollowTheForcedTier) {
  // End-to-end: matmul / tanh_t / softmax through the public Tensor ops are
  // bitwise tier-independent too (the whole point of the contract).
  ArchGuard guard;
  const auto tiers = available_tiers();
  Rng rng(808);
  Tensor a({19, 33}), b({33, 21});
  for (float& v : a.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (float& v : b.data()) v = static_cast<float>(rng.normal(0.0, 1.0));

  std::vector<float> want_mm, want_tanh, want_soft;
  for (KernelArch arch : tiers) {
    set_kernel_arch_for_testing(arch);
    const Tensor mm = matmul(a, b);
    const Tensor th = tanh_t(a);
    const Tensor sm = softmax_lastdim(a);
    if (arch == KernelArch::kScalar) {
      want_mm.assign(mm.raw(), mm.raw() + mm.size());
      want_tanh.assign(th.raw(), th.raw() + th.size());
      want_soft.assign(sm.raw(), sm.raw() + sm.size());
    } else {
      expect_bits_equal(mm.raw(), want_mm.data(), mm.size(), arch, "matmul");
      expect_bits_equal(th.raw(), want_tanh.data(), th.size(), arch,
                        "tanh_t");
      expect_bits_equal(sm.raw(), want_soft.data(), sm.size(), arch,
                        "softmax_lastdim");
    }
  }
}

TEST(KernelDispatch, ServedForecastsAreBitIdenticalAcrossTiers) {
  // A serving plan prepacks its weights for the tier active at compile
  // time, and the conv/linear GEMMs run on that tier. Sessions built on
  // each tier must still serve identical bits, planned and eager alike, so
  // forecasts do not depend on the host's instruction set.
  ArchGuard guard;
  const bool planning_was = graph::planning_enabled();
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.horizon = 2;
  opt.tcn.channels = {16, 16};  // paper-width convs: GEMM path at N=1
  opt.fc_dim = 16;
  opt.seed = 909;
  nn::RptcnNet net(opt);
  Rng rng(910);
  Tensor x({5, 3, 24});
  for (float& v : x.data()) v = static_cast<float>(rng.normal(0.0, 1.0));

  std::vector<float> want;
  for (KernelArch arch : available_tiers()) {
    set_kernel_arch_for_testing(arch);
    for (const bool planned : {true, false}) {
      graph::set_planning_enabled(planned);
      const serve::InferenceSession session(net);
      const Tensor y = session.run(x);
      if (want.empty())
        want.assign(y.raw(), y.raw() + y.size());
      else
        expect_bits_equal(y.raw(), want.data(), y.size(), arch,
                          planned ? "planned serving" : "eager serving");
    }
  }
  graph::set_planning_enabled(planning_was);
}

}  // namespace
}  // namespace rptcn
