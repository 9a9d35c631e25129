// The op table: every traced op's arithmetic, written once.
//
// Each ag::trace::OpKind has exactly one Entry: its name, arity, output-shape
// rule, saved buffer, forward kernel and one backward kernel per operand, all
// over raw buffers. The eager tape (autograd/ops.cpp) allocates Tensors and
// calls an entry's kernels; the tape compiler (graph/compile.cpp) binds the
// same kernels to planned arena buffers. Tape and plan therefore run the
// same loops by construction, not because a test compares two copies.
//
// Bit-identity rules:
//  * Table kernels live in translation units built without -mfma: only
//    tensor/kernels_avx2.cpp and tensor/kernels_avx512.cpp get arch flags
//    (tensor/CMakeLists.txt). A multiply feeding an add therefore rounds
//    twice wherever a kernel runs. GEMM and the transcendental pipelines
//    (sigmoid, tanh, softmax) are called from tensor/tensor_ops.h, never
//    re-written.
//  * Gradients follow the tape's first-write/accumulate discipline. A
//    kernel writes its contribution (add == false) or adds it (add == true),
//    and chooses between the two outside its loops, so both forms stay
//    vectorisable. A Grad marked `accumulates` instead adds into a
//    destination its caller zero-filled (conv dX/dW/db, linear, the
//    mul_bcast_channel dA, the time_slice/slice_cols scatters); a later
//    contribution from one goes through a zeroed scratch buffer and one
//    full add, exactly like Tensor::zeros followed by Node::accumulate.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "autograd/trace.h"

namespace rptcn {
struct PackedB;
}

namespace rptcn::ag::op {

using trace::Attrs;
using trace::OpKind;
using Shape = std::vector<std::size_t>;

/// Everything a kernel reads besides buffers: the shapes and the payload.
struct Geom {
  std::array<Shape, 3> in;  ///< operand shapes; an absent operand's is empty
  Shape out;
  Attrs attrs;
};

/// The buffers of one kernel call.
struct Bufs {
  std::array<const float*, 3> in{};  ///< operand values (absent: null)
  const float* out = nullptr;        ///< forward result (backward only)
  const float* gy = nullptr;         ///< gradient of the result (backward only)
  float* saved = nullptr;            ///< forward writes it, backward reads it
};

/// Buffers a backward kernel reads (Grad::reads); the compiler keeps only
/// these alive until the kernel runs.
enum Read : unsigned {
  kGy = 1u,
  kIn0 = 2u,
  kIn1 = 4u,
  kIn2 = 8u,
  kOut = 16u,
  kSaved = 32u,
};

using ForwardKernel = void (*)(const Geom&, const Bufs&, float* y);
using BackwardKernel = void (*)(const Geom&, const Bufs&, float* dst,
                                bool add);

/// One operand's backward.
struct Grad {
  BackwardKernel kernel = nullptr;  ///< null: no gradient flows there
  unsigned reads = 0;               ///< Read bits
  bool accumulates = false;         ///< adds into a zero-filled destination
};

struct Entry {
  OpKind kind;
  const char* name;
  /// Operand slots. A loss's slot 1 is the training target: a constant in
  /// the tape, the program's target in a compiled step.
  std::size_t arity;
  /// Checks the operand shapes (throws CheckError) and returns the result's.
  Shape (*shape)(const Geom&);
  /// Floats of the saved buffer (weight_norm: per-channel norms; dropout:
  /// the mask); null when the op saves nothing.
  std::size_t (*saved)(const Geom&);
  ForwardKernel forward;
  std::array<Grad, 3> grad;
  bool loss;
};

/// The entry of `kind`.
const Entry& entry(OpKind kind);
/// Every entry, indexed by OpKind.
const std::array<Entry, trace::kNumOpKinds>& table();

// -- conv1d and linear lowering -----------------------------------------------
// The compiler lowers these two ops itself: it prepacks weights and shares
// one im2col patch matrix and one gathered dy between GEMMs. It runs the
// kernels below, which are the ones the entries' own kernels run.

/// conv1d forward, dX and dW over the whole batch, im2col chunk by chunk.
/// These are the conv1d entry's kernels. dX and dW are `accumulates`
/// kernels: they always add into a zero-filled destination and ignore `add`.
void conv1d_forward(const Geom& g, const Bufs& b, float* y);
void conv1d_dx(const Geom& g, const Bufs& b, float* dx, bool add);
void conv1d_dw(const Geom& g, const Bufs& b, float* dw, bool add);
/// True when one im2col chunk covers the whole batch. Each kernel above is
/// then exactly the kernels below, run once on whole-batch intermediates.
bool conv1d_single_chunk(const Geom& g);
/// patches[(ci*K+kk), s*T_out+t] = x[s,ci,t+kk*d-pad] for the whole batch.
void conv1d_patches(const Geom& g, const float* x, float* patches);
/// dyg[co, s*T_out+t] = dy[s,co,t] for the whole batch.
void conv1d_gather_dy(const Geom& g, const float* dy, float* dyg);
/// Forward from patches: bias fill, one GEMM, scatter to y.
void conv1d_forward_patches(const Geom& g, const float* patches,
                            const float* w, const float* bias, float* y);
/// dX from gathered dy: Wᵀ·dY into columns, then col2im adds into dx.
void conv1d_dx_gathered(const Geom& g, const float* dyg, const float* w,
                        float* dx);
/// dW from gathered dy and patches: one GEMM adding into dw.
void conv1d_dw_patches(const Geom& g, const float* dyg, const float* patches,
                       float* dw);

/// linear forward and dX, reading the weight from `w_packed` when non-null
/// (a gemm_pack_b of W; legal only where the GEMM takes the blocked path).
void linear_forward(const Geom& g, const Bufs& b, float* y,
                    const PackedB* w_packed);
void linear_dx(const Geom& g, const Bufs& b, float* dx,
               const PackedB* w_packed);

}  // namespace rptcn::ag::op
