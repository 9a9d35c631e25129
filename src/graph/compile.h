// The tape compiler's core (graph/compile.cpp), shared by the planned
// training step (graph/train_step.cpp) and the forward-only compile
// (graph/forward.cpp); see train.h for the record/compile/verify/replay
// design. Private to src/graph.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "autograd/trace.h"
#include "autograd/variable.h"
#include "graph/plan.h"

namespace rptcn::graph {

/// Training compile: the forward records up to `loss`, then the backward in
/// the tape's firing order, with parameter i's gradient written into the
/// bound grad slab at offsets[i]. nullptr when the trace holds anything the
/// compiler cannot emit bit-identically.
std::shared_ptr<const Executable> compile_step_trace(
    const ag::trace::TapeTrace& trace, std::shared_ptr<autograd::Node> input,
    std::shared_ptr<autograd::Node> loss, const std::vector<Variable>& params,
    const std::vector<std::size_t>& offsets, std::size_t target_floats);

/// Forward-only compile with `output` as the program output. Leaves are
/// frozen: ops whose operands are all leaves fold to their probe values and
/// weight prepacks happen once, at compile time.
std::shared_ptr<const Executable> compile_forward_trace(
    const ag::trace::TapeTrace& trace, std::shared_ptr<autograd::Node> input,
    std::shared_ptr<autograd::Node> output);

}  // namespace rptcn::graph
