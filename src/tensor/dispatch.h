// Runtime kernel dispatch: cpuid-probed SIMD tiers for the numeric substrate.
//
// Every hot kernel in tensor_ops.cpp (the blocked GEMM micro-kernel and its
// pack routines, the small-shape GEMM, the im2col patch writer and the
// shared vexp/vtanh transcendental kernels) is reached through one
// per-process KernelTable of function pointers. Three tiers are registered:
//
//   scalar — portable baseline, compiled with no ISA flags. Always present.
//   avx2   — 256-bit intrinsics (compiled with -mavx2 -mfma).
//   avx512 — 512-bit intrinsics (compiled with -mavx512{f,bw,dq,vl} -mfma).
//
// The active tier is resolved exactly once, on first use: the best tier the
// CPU supports (probed via __builtin_cpu_supports) intersected with the
// tiers compiled into the binary, overridden by RPTCN_FORCE_ARCH=
// {scalar,avx2,avx512}. Forcing a tier the host cannot run clamps down to
// the best supported one with a warning, so the override is always safe.
//
// Determinism contract: all tiers are BIT-IDENTICAL, not merely close.
//   * GEMM: every tier folds products with one correctly-rounded fma per
//     element in the same fixed k-ascending order, panel by panel (kKC),
//     on the small-shape and the blocked path alike; micro-tile width (8x8
//     scalar/avx2, 16x16 avx512) only changes which elements are computed
//     together, never the per-element operation sequence.
//   * exp/tanh (and sigmoid/softmax built on them): one shared polynomial
//     algorithm (kernels_detail.h) whose per-element fma chain is identical
//     in scalar and vector form. No libm in any tier, so no libm variance
//     either — results are also identical across glibc versions.
//   * im2col / packing: pure data movement, trivially exact.
// tests/test_kernel_dispatch.cpp enforces all of this bitwise, per tier,
// including remainder tails. Committed goldens/CSVs are therefore
// arch-independent: any tier regenerates them byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rptcn {

/// k-panel depth of every GEMM. Each C element is reduced as an fma chain
/// from zero over each kKC-deep k panel, and each panel's sum is added to C
/// in ascending panel order. The blocked kernel (tensor_ops.cpp) and the
/// small-shape kernel (kernels_detail.h) both read this one constant, so a
/// GEMM's bits never depend on which of them its shape takes.
inline constexpr std::size_t kKC = 256;

/// Arch tiers in strictly increasing capability order (comparable with <).
enum class KernelArch : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase tier name ("scalar", "avx2", "avx512").
const char* kernel_arch_name(KernelArch arch);

/// Per-tier kernel registrations. One immutable instance per compiled tier;
/// the active one is swapped atomically (tests) but entries never mutate.
struct KernelTable {
  KernelArch arch = KernelArch::kScalar;
  std::size_t mr = 8;  ///< micro-tile rows   (pack_a panel height)
  std::size_t nr = 8;  ///< micro-tile cols   (pack_b panel width)

  /// mr x nr register tile: acc[r*nr+c] = sum_p fma(ap[p*mr+r], bp[p*nr+c]).
  /// All mr*nr entries of acc are overwritten (no caller init needed);
  /// packed panels are zero-padded so edge tiles are computed in full.
  void (*micro_kernel)(std::size_t kc, const float* ap, const float* bp,
                       float* acc) = nullptr;

  /// Pack op(A)[mc x kc] starting at (i0, p0) into row panels of height mr,
  /// k-major, zero-padded short panels.
  void (*pack_a)(const float* a, std::size_t lda, bool trans, std::size_t i0,
                 std::size_t p0, std::size_t mc, std::size_t kc,
                 float* buf) = nullptr;

  /// Pack op(B)[kc x n] starting at row p0 into column panels of width nr,
  /// k-major, zero-padded short panels.
  void (*pack_b)(const float* b, std::size_t ldb, bool trans, std::size_t p0,
                 std::size_t kc, std::size_t n, float* buf) = nullptr;

  /// Small-shape loop nest, C += op(A)·op(B), in the blocked kernel's
  /// per-element order (see kKC). C may hold a bias to accumulate onto.
  void (*gemm_small)(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, bool ta, const float* b,
                     std::size_t ldb, bool tb, float* c) = nullptr;

  /// In-place p[i] = exp(p[i]) through the shared polynomial kernel.
  void (*vexp)(float* p, std::size_t n) = nullptr;

  /// In-place p[i] = tanh(p[i]) (odd-symmetric Cephes split: |x| <= 0.625
  /// direct polynomial, above it 1 - 2/(exp(2|x|)+1) through the same exp
  /// core).
  void (*vtanh)(float* p, std::size_t n) = nullptr;

  /// Causal-padding-aware im2col patch writer (signature and semantics of
  /// ag::fwd::im2col_strided; see autograd/ops.h).
  void (*im2col)(const float* x, std::size_t xs, std::size_t xc,
                 std::size_t nc, std::size_t cin, std::size_t t_in,
                 std::size_t k, std::size_t d, std::size_t pad,
                 std::size_t t_out, float* patches) = nullptr;
};

/// The active tier's table. First call resolves the tier (cpuid ∩ compiled
/// tiers, RPTCN_FORCE_ARCH override); subsequent calls are one relaxed
/// atomic load.
const KernelTable& kernels();

/// Arch of the active table.
KernelArch kernel_arch();

/// Best tier this CPU can run among the tiers compiled into the binary.
KernelArch best_supported_arch();

/// True iff the host CPU can execute the given tier (independent of whether
/// it was compiled in).
bool cpu_supports(KernelArch arch);

/// Human-readable probe summary for bench metadata, e.g.
/// "avx2=1 fma=1 avx512f=1 avx512bw=1 avx512dq=1 avx512vl=1".
std::string cpu_flags_string();

/// Pure resolution rule behind the RPTCN_FORCE_ARCH override (exposed for
/// unit tests): empty/null -> best; unknown value -> best (warns); a tier
/// above `best` clamps to best (warns); otherwise the forced tier.
KernelArch resolve_arch(const char* forced, KernelArch best);

// -- test hooks ---------------------------------------------------------------
// Not for production use: the active tier is meant to be fixed for the whole
// process. Switching invalidates PackedB packs made under the old tier
// (gemm_accumulate_packed_b checks the recorded panel width and fails
// loudly). Both hooks are thread-safe to call, but callers must not race
// them against in-flight GEMMs that hold packs.

/// Force the active tier (must be compiled in and CPU-supported; checked).
void set_kernel_arch_for_testing(KernelArch arch);

/// Re-run the full resolution (cpuid + RPTCN_FORCE_ARCH) — lets tests
/// exercise the env-override plumbing with setenv().
void redetect_kernel_arch_for_testing();

}  // namespace rptcn
