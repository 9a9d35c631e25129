// Planned execution: flat programs over one ahead-of-time-planned arena.
//
// A fixed (model, input shape) pair runs the same ops on the same sizes on
// every call. The eager tape pays shape checks, dispatch branches, node
// allocation and a buffer-pool round trip per intermediate on each of them.
// A planned program pays those costs once:
//
//  * compile — the tape compiler (train.h) records the module's eager
//    forward (or training step) and re-emits it as an immutable flat list
//    of TensorOps, keyed by the input shape [N, F, T].
//  * plan    — liveness analysis assigns every intermediate an offset in one
//    contiguous arena. A value is live on [def, last_use]; non-overlapping
//    lifetimes share arena bytes (first-fit free list, 16-float aligned).
//  * replay  — Executable::run binds {input, output, arena} and walks the
//    op list. No shape checks, no dispatch, no per-op allocation.
//
// Bit-identity contract: a program is bit-identical to the eager forward it
// was recorded from. The compiler runs the eager op-table kernels
// (autograd/op_table.h), makes the same dispatch decisions ahead of time,
// and verifies each program against its probe before caching it.
// tests/test_graph.cpp, tests/test_graph_train.cpp and tests/test_op_table.cpp
// gate this.
//
// set_planning_enabled(false) makes every plan-aware caller run the eager
// forward.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace rptcn::graph {

/// Global planning switch, on by default.
bool planning_enabled();
void set_planning_enabled(bool on);

/// Bound buffers for one replay. `arena` holds every planned intermediate;
/// `input`/`output` stay external so replays can write straight into
/// caller-owned tensors. Training programs additionally bind `target` (the
/// batch labels, read-only) and `grads` (one contiguous slab holding every
/// parameter gradient at the optimizer's slab offsets); forward-only
/// programs leave both null.
struct ExecContext {
  const float* input = nullptr;
  float* output = nullptr;
  float* arena = nullptr;
  const float* target = nullptr;
  float* grads = nullptr;
};

/// One replay step: a closure over pre-resolved offsets and baked weights.
using Operation = std::function<void(const ExecContext&)>;

/// Flat dispatch record, one per captured op.
struct TensorOp {
  Operation op;
  std::string name;            ///< kernel name for debugging / tests
  std::size_t num_inputs = 0;  ///< fan-in, for plan introspection
};

/// Handle to a planned value inside a GraphBuilder trace.
using ValueId = std::size_t;

/// Where a planned value lives at replay time. kTarget/kGrads only appear in
/// training programs; the arena planner ignores both (fixed external
/// storage), like kInput/kOutput.
enum class Loc { kInput, kOutput, kArena, kTarget, kGrads };

/// Debug/test view of one planned value.
struct ValueInfo {
  Loc loc = Loc::kArena;
  std::size_t off = 0;     ///< float offset within its region
  std::size_t floats = 0;  ///< size
  std::size_t def = 0;     ///< defining step
  std::size_t last = 0;    ///< last step that reads or writes it
};

/// An immutable captured-and-planned forward. Thread-safe to replay
/// concurrently: run() binds a per-call arena from the buffer pool, and the
/// baked closures only read shared state (weights, offsets).
class Executable {
 public:
  Executable(std::vector<TensorOp> steps, std::vector<ValueInfo> values,
             std::vector<std::size_t> input_shape,
             std::vector<std::size_t> output_shape, std::size_t arena_floats);

  /// Replay: x must match input_shape() exactly (checked). Returns a fresh
  /// output tensor of output_shape().
  Tensor run(const Tensor& x) const;

  const std::vector<std::size_t>& input_shape() const { return input_shape_; }
  const std::vector<std::size_t>& output_shape() const {
    return output_shape_;
  }
  std::size_t arena_floats() const { return arena_floats_; }
  std::size_t step_count() const { return steps_.size(); }
  const std::vector<TensorOp>& steps() const { return steps_; }
  const std::vector<ValueInfo>& values() const { return values_; }

 private:
  std::vector<TensorOp> steps_;
  std::vector<ValueInfo> values_;
  std::vector<std::size_t> input_shape_;
  std::vector<std::size_t> output_shape_;
  std::size_t arena_floats_ = 0;
};

// -- capture-time graph construction ------------------------------------------
// Emitters (compile.cpp) declare values and ops against a GraphBuilder; the
// builder runs liveness + arena assignment in finish(), then bakes each op's
// closure with the final offsets. Ops never see ValueIds at replay time.

/// Resolves ValueIds to concrete pointers inside a bound ExecContext.
/// Handed to MakeFn AFTER planning, so closures capture raw offsets.
class Resolver {
 public:
  /// Pointer to a planned value's storage given the bound context.
  /// The returned accessor is a plain offset dereference — safe to call
  /// inside the op closure on every replay.
  std::function<float*(const ExecContext&)> ptr(ValueId v) const;
  std::function<const float*(const ExecContext&)> cptr(ValueId v) const;

 private:
  friend class GraphBuilder;
  explicit Resolver(const std::vector<ValueInfo>* values) : values_(values) {}
  const std::vector<ValueInfo>* values_;
};

/// Builds one op's replay closure once offsets are final.
using MakeFn = std::function<Operation(const Resolver&)>;

/// Declarative record of one op's data flow, consumed by the planner.
struct EmitSpec {
  std::string name;
  std::vector<ValueId> inputs;   ///< values read (extends their liveness)
  std::vector<ValueId> outputs;  ///< values defined (or mutated in place)
  std::vector<ValueId> scratch;  ///< live only during this step
};

class GraphBuilder {
 public:
  GraphBuilder(std::vector<std::size_t> input_shape,
               std::vector<std::size_t> output_shape);

  /// Declare the whole-input / whole-output values (loc kInput / kOutput).
  ValueId input_value();
  ValueId output_value();

  /// Declare an arena value of `floats` elements.
  ValueId value(std::size_t floats);

  /// Declare the training-target value (loc kTarget, read-only at replay).
  /// One per program; repeated calls return the same id.
  ValueId target_value(std::size_t floats);

  /// Declare one parameter's gradient segment inside the bound grad slab at
  /// a fixed float offset (the optimizer's slab layout). Not arena-planned.
  ValueId grads_value(std::size_t off, std::size_t floats);

  /// Append an op. `make` is invoked in finish() with the planned offsets.
  void emit(EmitSpec spec, MakeFn make);

  /// Run liveness + arena assignment, bake closures, and freeze.
  std::shared_ptr<const Executable> finish();

 private:
  std::vector<std::size_t> input_shape_;
  std::vector<std::size_t> output_shape_;
  std::vector<ValueInfo> values_;
  std::vector<EmitSpec> specs_;
  std::vector<MakeFn> makes_;
  ValueId input_id_ = 0;
  ValueId output_id_ = 0;
  static constexpr ValueId kNoValue = static_cast<ValueId>(-1);
  ValueId target_id_ = kNoValue;
};

// -- plan cache ---------------------------------------------------------------

/// Compiles a plan for inputs of probe's shape [N, F, T], recording the
/// forward on `probe`; nullptr pins that shape to the eager forward.
using CaptureFn =
    std::function<std::shared_ptr<const Executable>(const Tensor& probe)>;

/// Shape-keyed cache of Executables for one frozen model. A hot-swap
/// installs a new session (and with it a new PlanCache), so generation
/// invalidation is structural: stale plans die with the session that owns
/// them and can never serve a new generation's weights.
class PlanCache {
 public:
  explicit PlanCache(CaptureFn capture);

  /// Plan for x's shape: cached, or captured under the lock with x as the
  /// probe (so a shape is captured exactly once even under concurrent first
  /// calls). nullptr when that shape is pinned to the eager forward.
  std::shared_ptr<const Executable> get(const Tensor& x);

  /// Shapes currently cached (for error messages and tests).
  std::vector<std::array<std::size_t, 3>> shapes() const;

  std::size_t size() const;

  /// Bound on distinct shapes kept; oldest-inserted evicted beyond this.
  static constexpr std::size_t kMaxPlans = 32;

 private:
  struct KeyHash {
    std::size_t operator()(const std::array<std::size_t, 3>& k) const {
      std::size_t h = 1469598103934665603ull;
      for (std::size_t v : k) h = (h ^ v) * 1099511628211ull;
      return h;
    }
  };

  CaptureFn capture_;
  mutable std::mutex mu_;
  std::unordered_map<std::array<std::size_t, 3>,
                     std::shared_ptr<const Executable>, KeyHash>
      plans_;
  std::vector<std::array<std::size_t, 3>> order_;  ///< insertion order
};

}  // namespace rptcn::graph
