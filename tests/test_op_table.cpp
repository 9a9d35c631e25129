// Table-driven parity over the op table (autograd/op_table.h): every
// ag::trace::OpKind has exactly one entry, and for every entry the compiled
// training step reproduces the tape step bit-for-bit (loss and every
// gradient), and a forward-only compile reproduces the eager forward. Each
// case applies its op twice to the same operands, so every operand's
// backward kernel runs once in write mode and once in add mode; for the
// losses, which are the graph's root, only the write mode is reachable. The
// "Graph" prefix is matched by the TSAN CI job's -R filter.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "autograd/op_table.h"
#include "autograd/ops.h"
#include "autograd/trace.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "graph/compile.h"
#include "graph/train.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"

namespace rptcn::graph {
namespace {

using ag::trace::OpKind;
using Shape = std::vector<std::size_t>;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.raw()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// The stream the dropout cases draw from.
Rng& dropout_rng() {
  static Rng rng(99);
  return rng;
}

/// One op under test: its operand shapes and a call of its ag:: wrapper.
/// A loss case's `apply` is the loss against `target`.
struct Case {
  OpKind kind;
  std::vector<Shape> operands;
  std::function<Variable(const std::vector<Variable>&, const Tensor& target)>
      apply;
};

std::vector<Case> cases() {
  using V = std::vector<Variable>;
  const auto unary = [](OpKind k, Shape s, Variable (*f)(const Variable&)) {
    return Case{k, {std::move(s)},
                [f](const V& v, const Tensor&) { return f(v[0]); }};
  };
  return {
      {OpKind::kAdd, {{4, 6}, {4, 6}},
       [](const V& v, const Tensor&) { return ag::add(v[0], v[1]); }},
      {OpKind::kMul, {{4, 6}, {4, 6}},
       [](const V& v, const Tensor&) { return ag::mul(v[0], v[1]); }},
      // Large enough for the blocked GEMM, so the packed weight path runs.
      {OpKind::kLinear, {{16, 32}, {24, 32}, {24}},
       [](const V& v, const Tensor&) { return ag::linear(v[0], v[1], v[2]); }},
      unary(OpKind::kRelu, {4, 6}, ag::relu),
      unary(OpKind::kSigmoid, {4, 6}, ag::sigmoid),
      unary(OpKind::kTanh, {4, 6}, ag::tanh_v),
      {OpKind::kConv1d, {{3, 4, 12}, {5, 4, 3}, {5}},
       [](const V& v, const Tensor&) {
         return ag::conv1d(v[0], v[1], v[2], /*dilation=*/2);
       }},
      {OpKind::kWeightNorm, {{5, 4, 3}, {5}},
       [](const V& v, const Tensor&) { return ag::weight_norm(v[0], v[1]); }},
      {OpKind::kDropout, {{4, 6}},
       [](const V& v, const Tensor&) {
         return ag::dropout(v[0], 0.3f, dropout_rng(), true);
       }},
      {OpKind::kSpatialDropout, {{3, 4, 5}},
       [](const V& v, const Tensor&) {
         return ag::spatial_dropout(v[0], 0.3f, dropout_rng(), true);
       }},
      unary(OpKind::kSoftmaxLastdim, {3, 2, 7}, ag::softmax_lastdim_v),
      {OpKind::kMulBcastChannel, {{3, 1, 5}, {3, 4, 5}},
       [](const V& v, const Tensor&) {
         return ag::mul_bcast_channel(v[0], v[1]);
       }},
      unary(OpKind::kSumLastdim, {3, 4, 5}, ag::sum_lastdim),
      {OpKind::kTimeSlice, {{3, 4, 5}},
       [](const V& v, const Tensor&) { return ag::time_slice(v[0], 2); }},
      unary(OpKind::kTimeReverse, {3, 4, 5}, ag::time_reverse),
      {OpKind::kConcatCols, {{4, 3}, {4, 2}},
       [](const V& v, const Tensor&) { return ag::concat_cols(v[0], v[1]); }},
      {OpKind::kSliceCols, {{4, 6}},
       [](const V& v, const Tensor&) { return ag::slice_cols(v[0], 1, 3); }},
      {OpKind::kMseLoss, {{4, 2}},
       [](const V& v, const Tensor& t) { return ag::mse_loss(v[0], t); }},
      {OpKind::kMaeLoss, {{4, 2}},
       [](const V& v, const Tensor& t) { return ag::mae_loss(v[0], t); }},
      {OpKind::kPinballLoss, {{4, 2}},
       [](const V& v, const Tensor& t) {
         return ag::pinball_loss(v[0], t, 0.8f);
       }},
  };
}

TEST(GraphOpTable, EveryOpKindHasExactlyOneEntry) {
  const auto& table = ag::op::table();
  std::set<std::string> names;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const ag::op::Entry& e = table[i];
    EXPECT_EQ(static_cast<std::size_t>(e.kind), i) << "entry " << i;
    EXPECT_EQ(&ag::op::entry(e.kind), &e);
    ASSERT_NE(e.name, nullptr);
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    EXPECT_GE(e.arity, 1u);
    EXPECT_LE(e.arity, 3u);
    EXPECT_NE(e.shape, nullptr) << e.name;
    EXPECT_NE(e.forward, nullptr) << e.name;
    EXPECT_NE(e.grad[0].kernel, nullptr) << e.name;
    for (std::size_t k = e.arity; k < 3; ++k)
      EXPECT_EQ(e.grad[k].kernel, nullptr) << e.name << " operand " << k;
  }
  std::set<OpKind> covered;
  for (const Case& c : cases()) covered.insert(c.kind);
  EXPECT_EQ(covered.size(), ag::trace::kNumOpKinds)
      << "some entry has no parity case below";
}

/// The tape step and the compiled step on one case: operand 0 is the
/// program input plus a parameter (a planned value whose gradient lives in
/// the arena), the other operands are parameters (gradients in the slab).
void expect_step_parity(const Case& c) {
  const ag::op::Entry& e = ag::op::entry(c.kind);
  SCOPED_TRACE(e.name);
  std::vector<Variable> params;
  for (std::size_t i = 0; i < c.operands.size(); ++i)
    params.emplace_back(random_tensor(c.operands[i], 10 + i), true);
  const Variable x(random_tensor(c.operands[0], 20));

  std::vector<Variable> ops = params;
  ops[0] = ag::add(x, params[0]);
  const auto forward = [&](const Tensor& target) {
    if (e.loss) return c.apply(ops, target);
    return ag::mse_loss(
        ag::add(c.apply(ops, target), c.apply(ops, target)), target);
  };
  Shape target_shape = c.operands[0];
  {
    NoGradScope probe;
    if (!e.loss) target_shape = c.apply(ops, Tensor()).value().shape();
  }
  const Tensor target = random_tensor(target_shape, 30);

  const Rng rng_before = dropout_rng();
  ag::trace::TapeTrace trace;
  Variable loss;
  {
    ag::trace::Recording rec(&trace);
    // Re-derive operand 0 under the recording so the compiler sees it.
    ops[0] = ag::add(x, params[0]);
    loss = forward(target);
    loss.backward();
  }

  std::vector<std::size_t> offsets;
  std::size_t slab_floats = 0;
  for (const Variable& p : params) {
    offsets.push_back(slab_floats);
    slab_floats += p.size();
  }
  const auto prog = compile_step_trace(trace, x.node(), loss.node(), params,
                                       offsets, target.size());
  ASSERT_NE(prog, nullptr) << "the compiler declined the case";

  dropout_rng() = rng_before;
  std::vector<float> slab(slab_floats, -1.0f);
  float replay_loss = 0.0f;
  pool::Scratch arena(prog->arena_floats());
  ExecContext ctx;
  ctx.input = x.value().raw();
  ctx.output = &replay_loss;
  ctx.arena = arena.data();
  ctx.target = target.raw();
  ctx.grads = slab.data();
  for (const TensorOp& s : prog->steps()) s.op(ctx);

  const float tape_loss = loss.value().item();
  EXPECT_TRUE(same_bits(&replay_loss, &tape_loss, 1))
      << "loss " << replay_loss << " vs tape " << tape_loss;
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_TRUE(same_bits(params[i].grad().raw(), slab.data() + offsets[i],
                          params[i].size()))
        << "gradient of operand " << i << " differs from the tape";
}

/// A forward-only compile of one application against the eager forward.
/// Live dropout draws and losses are not servable: the compile declines.
void expect_forward_parity(const Case& c) {
  const ag::op::Entry& e = ag::op::entry(c.kind);
  SCOPED_TRACE(e.name);
  std::vector<Variable> params;
  for (std::size_t i = 0; i < c.operands.size(); ++i)
    params.emplace_back(random_tensor(c.operands[i], 40 + i));
  const Tensor target = random_tensor(c.operands[0], 50);
  const opt::ForwardFn forward = [&](const Variable& x) {
    std::vector<Variable> ops = params;
    ops[0] = ag::add(x, params[0]);
    return c.apply(ops, target);
  };
  const Tensor probe = random_tensor(c.operands[0], 60);
  const auto exec = compile_forward(forward, probe);
  if (e.loss || c.kind == OpKind::kDropout ||
      c.kind == OpKind::kSpatialDropout) {
    EXPECT_EQ(exec, nullptr);
    return;
  }
  ASSERT_NE(exec, nullptr);
  const Tensor other = random_tensor(c.operands[0], 61);
  NoGradScope no_grad;
  const Tensor want = forward(Variable(other)).value();
  const Tensor got = exec->run(other);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(same_bits(got.raw(), want.raw(), want.size()));
}

TEST(GraphOpTable, CompiledStepMatchesTapeForEveryEntry) {
  for (const Case& c : cases()) expect_step_parity(c);
}

TEST(GraphOpTable, ForwardCompileMatchesEagerForEveryEntry) {
  for (const Case& c : cases()) expect_forward_parity(c);
}

}  // namespace
}  // namespace rptcn::graph
