// The tape compiler: record -> compile -> verify -> replay, shared by the
// planned training step and planned serving.
//
// Every registry net has exactly one description, its nn::Module forward.
// Both executors are built from a recording of that forward:
//
//  * record  — run the eager forward once on a probe batch under an
//    ag::trace::Recording. The trace lists every forward op (kind,
//    operands, scalar payload, dropout RNG state) and, for a training step,
//    the backward closures' firing order.
//  * compile — re-emit the trace as flat TensorOps against a GraphBuilder,
//    binding the op table's kernels to planned buffers (a blocked-path
//    weight prepack and a shared im2col patch matrix change where operands
//    come from, never a summation order). Values share one liveness-planned
//    arena. Only true leaves (parameters, constants) are baked; a
//    parentless node that some untraced op produced fails the compile,
//    since its value derives from the probe's input.
//  * verify  — replay the program on the probe batch and demand bitwise
//    equality with the eager result. Only a program that passes is cached;
//    a mismatch pins that shape to the eager forward.
//  * replay  — every later batch of that shape runs the flat program.
//
// Training (make_planned_step): the probe IS that batch's training step.
// The program writes parameter gradients into the Adam optimizer's
// contiguous slab; clip_grad_slab + Adam::step_planned finish the step.
// Verification also rewinds the dropout RNG streams and compares every
// parameter gradient. A training program reads each parameter through its
// node and re-packs weight panels at every replay, so Adam's updates and
// any other write to the weights reach the next replay without a
// recompile.
//
// Serving (compile_forward): only the forward records are emitted, with the
// traced result as the program output. The caller's leaves are frozen (a
// serve::InferenceSession compiles against its own private copy of the
// net), so ops whose operands are all leaves — weight_norm — fold to their
// probe values, and weight prepacks happen once at compile time.
//
// set_planning_enabled(false) makes every caller run the eager forward /
// step.
#pragma once

#include <memory>

#include "graph/plan.h"
#include "nn/module.h"
#include "opt/trainer.h"

namespace rptcn::graph {

/// Build the planned training step for one fit() call, or nullptr to train
/// eagerly. Requirements: `optimizer`'s parameter list matches
/// model.parameters() element-for-element (the slab layout and the clip
/// reduction order both follow it), and planning is enabled. Wired into
/// opt::TrainOptions::planned_step_factory by models::NetForecaster::fit.
std::shared_ptr<opt::PlannedStep> make_planned_step(
    nn::Module& model, const opt::ForwardFn& forward, opt::Adam& optimizer,
    const opt::TrainOptions& options);

/// Forward-only compile for inputs of probe's shape: records `forward` on
/// `probe` (under NoGradScope), compiles the forward records, and returns
/// the program only if replaying it on `probe` reproduces the eager result
/// bit-for-bit; nullptr means "serve this shape eagerly". The module behind
/// `forward` must be in eval mode and its parameters must stay unchanged
/// for the program's lifetime (they are read in place, and weight-derived
/// values are folded).
std::shared_ptr<const Executable> compile_forward(const opt::ForwardFn& forward,
                                                  const Tensor& probe);

}  // namespace rptcn::graph
