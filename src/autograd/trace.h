// Tape trace: introspection hooks the planned training step compiles from.
//
// When a Recording is active on the current thread, every supported ag:: op
// appends one OpRecord describing the node it built (kind, operands, typed
// payload, RNG stream state for dropout), and Variable::backward appends the
// nodes whose backward closures actually fire, in firing order. The tape
// compiler (graph/compile.cpp) walks both lists and emits each record's
// op-table entry (autograd/op_table.h) as flat TensorOps.
//
// Ops without a record (anything not in OpKind) simply leave a gap: the
// compiler treats any non-leaf node it cannot resolve to a record as
// unsupported and falls back to the eager step. Recording costs one
// thread-local load per op when inactive.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"

namespace rptcn::ag::trace {

using autograd::Node;
using NodePtr = std::shared_ptr<autograd::Node>;

enum class OpKind {
  kAdd,
  kMul,
  kLinear,
  kRelu,
  kSigmoid,
  kTanh,
  kConv1d,
  kWeightNorm,
  kDropout,
  kSpatialDropout,
  kSoftmaxLastdim,
  kMulBcastChannel,
  kSumLastdim,
  kTimeSlice,
  kTimeReverse,
  kConcatCols,
  kSliceCols,
  kMseLoss,
  kMaeLoss,
  kPinballLoss,
};

/// Number of OpKinds: the op table has exactly one entry per kind.
inline constexpr std::size_t kNumOpKinds =
    static_cast<std::size_t>(OpKind::kPinballLoss) + 1;

/// Typed payload of a traced op: the scalars its kernels read besides
/// buffers and shapes. Each field names the ops that set it; the rest keep
/// their defaults.
struct Attrs {
  std::size_t dilation = 1;  // conv1d
  std::size_t pad = 0;       // conv1d: resolved left pad
  std::size_t start = 0;     // time_slice: the timestep; slice_cols: first column
  std::size_t count = 0;     // slice_cols: column count
  float p = 0.0f;            // dropout, spatial_dropout: drop probability
  float tau = 0.0f;          // pinball_loss: quantile level
  Rng* rng = nullptr;        // dropout, spatial_dropout: the net's stream
                             // (stable address)
};

struct OpRecord {
  OpKind kind = OpKind::kAdd;
  NodePtr result;
  std::array<NodePtr, 3> in{};  // operand nodes; unused slots stay null
  Attrs attrs;
  Rng rng_before{0};            // dropout: stream state before this op drew
};

struct TapeTrace {
  std::vector<OpRecord> ops;            // forward, in execution order
  std::vector<Node*> backward_order;    // closures fired, in firing order
};

/// True when a Recording is active on this thread.
bool active();

/// Append a forward record (no-op when inactive).
void record(OpRecord r);

/// Append a backward-order entry (no-op when inactive).
void record_backward(Node* n);

/// RAII scope that routes record()/record_backward() into `sink`.
/// Scopes do not nest; constructing a second one on the same thread throws.
class Recording {
 public:
  explicit Recording(TapeTrace* sink);
  ~Recording();
  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;
};

}  // namespace rptcn::ag::trace
