// Tests for the planned executor (src/graph): arena planning invariants
// (liveness sharing, no overlap while live), parity of
// the forward-only tape compile (graph::compile_forward) against the eager
// module forward for every supported net (the bit-identity contract from
// plan.h), weight folding in serving plans, compile determinism and shape
// checks, PlanCache behaviour
// (capture-once, hit/miss counters, eviction, pinned shapes), and
// InferenceSession integration including the planning-disabled fallback
// and shape-error messages. The "Graph" prefix is matched by the
// TSAN CI job's -R filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/trace.h"
#include "autograd/variable.h"
#include "common/check.h"
#include "common/rng.h"
#include "graph/plan.h"
#include "graph/train.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"
#include "obs/metrics.h"
#include "serve/session.h"
#include "tensor/tensor.h"

namespace rptcn::graph {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.raw()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0)
      << "planned output is not bit-identical to the eager forward";
}

/// Restores the global planning switch (tests toggle it).
class PlanningGuard {
 public:
  PlanningGuard() : was_(planning_enabled()) {}
  ~PlanningGuard() { set_planning_enabled(was_); }

 private:
  bool was_;
};

/// Enables metric recording for the test body, restoring the old state.
class ObsGuard {
 public:
  ObsGuard() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsGuard() { obs::set_enabled(was_); }

 private:
  bool was_;
};

/// Emits `dst[i] = src[i] + delta` over `len` floats.
void emit_add_const(GraphBuilder& g, ValueId src, ValueId dst, std::size_t len,
                    float delta) {
  EmitSpec spec;
  spec.name = "add_const";
  spec.inputs = {src};
  spec.outputs = {dst};
  g.emit(spec, [src, dst, len, delta](const Resolver& r) -> Operation {
    auto in = r.cptr(src);
    auto out = r.ptr(dst);
    return [in, out, len, delta](const ExecContext& ctx) {
      const float* s = in(ctx);
      float* d = out(ctx);
      for (std::size_t i = 0; i < len; ++i) d[i] = s[i] + delta;
    };
  });
}

/// Minimal executable: output = input (shape [n, f, t]). Used as a cheap
/// CaptureFn for the PlanCache tests.
std::shared_ptr<const Executable> copy_executable(std::size_t n, std::size_t f,
                                                  std::size_t t) {
  const std::size_t len = n * f * t;
  GraphBuilder g({n, f, t}, {n, f, t});
  const ValueId in = g.input_value();
  const ValueId out = g.output_value();
  emit_add_const(g, in, out, len, 0.0f);
  return g.finish();
}

std::shared_ptr<const Executable> copy_capture(const Tensor& probe) {
  return copy_executable(probe.dim(0), probe.dim(1), probe.dim(2));
}

/// Eval-mode forward of a net, as the serving entry records it.
template <typename Net>
opt::ForwardFn eval_forward(Net& net) {
  net.set_training(false);
  return [&net](const Variable& x) { return net.forward(x); };
}

Tensor eager(const opt::ForwardFn& forward, const Tensor& x) {
  NoGradScope no_grad;
  return forward(Variable(x)).value();
}

// -- planner invariants -------------------------------------------------------

TEST(GraphPlanner, DeadBlocksAreReusedAcrossLifetimes) {
  // in -> a -> b -> c -> out, 64 floats each. `a` dies once `b` is
  // computed, so `c` (defined one step later) must land on `a`'s block, and
  // the arena needs two blocks, not three.
  const std::size_t len = 64;
  GraphBuilder g({8, 8}, {8, 8});
  const ValueId in = g.input_value();
  const ValueId out = g.output_value();
  const ValueId a = g.value(len);
  const ValueId b = g.value(len);
  const ValueId c = g.value(len);
  emit_add_const(g, in, a, len, 1.0f);
  emit_add_const(g, a, b, len, 1.0f);
  emit_add_const(g, b, c, len, 1.0f);
  emit_add_const(g, c, out, len, 1.0f);
  const auto exec = g.finish();

  const auto& vals = exec->values();
  EXPECT_EQ(vals[a].loc, Loc::kArena);
  EXPECT_EQ(vals[c].off, vals[a].off) << "dead block was not reused";
  EXPECT_NE(vals[b].off, vals[a].off) << "simultaneously live blocks overlap";
  EXPECT_EQ(exec->arena_floats(), 2 * len);
  EXPECT_EQ(exec->step_count(), 4u);

  // Reuse must not corrupt the dataflow: four chained increments, rounded
  // exactly as the ops apply them.
  const Tensor x = random_tensor({8, 8}, 11);
  const Tensor y = exec->run(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    float expected = x.raw()[i];
    for (int step = 0; step < 4; ++step) expected += 1.0f;
    ASSERT_EQ(y.raw()[i], expected);
  }
}

TEST(GraphPlanner, LiveArenaBlocksNeverOverlapInRealCapture) {
  // The planner invariant on a real model graph: any two arena values whose
  // [def, last] lifetimes intersect must occupy disjoint byte ranges.
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  nn::RptcnNet net(opt);
  const auto exec = compile_forward(eval_forward(net), random_tensor({4, 3, 12}, 13));
  ASSERT_NE(exec, nullptr);
  const auto& vals = exec->values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (vals[i].loc != Loc::kArena) continue;
    for (std::size_t j = i + 1; j < vals.size(); ++j) {
      if (vals[j].loc != Loc::kArena) continue;
      const bool lifetimes_intersect =
          vals[i].def <= vals[j].last && vals[j].def <= vals[i].last;
      if (!lifetimes_intersect) continue;
      const bool disjoint = vals[i].off + vals[i].floats <= vals[j].off ||
                            vals[j].off + vals[j].floats <= vals[i].off;
      EXPECT_TRUE(disjoint) << "values " << i << " and " << j
                            << " are live together but share arena bytes";
    }
    EXPECT_LE(vals[i].off + vals[i].floats, exec->arena_floats());
  }
}

// -- forward-only compile parity (the bit-identity contract) -----------------

/// At N=1 and N=5 the verified program reproduces the eager module forward
/// on its probe, on a second replay (arena re-bound from the pool), and on
/// a second, different input.
void expect_forward_parity(const opt::ForwardFn& forward, std::size_t f,
                           std::size_t t) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}}) {
    const Tensor x = random_tensor({n, f, t}, 100 + n);
    const auto exec = compile_forward(forward, x);
    ASSERT_NE(exec, nullptr);
    expect_same_bits(eager(forward, x), exec->run(x));
    expect_same_bits(eager(forward, x), exec->run(x));
    const Tensor x2 = random_tensor({n, f, t}, 200 + n);
    expect_same_bits(eager(forward, x2), exec->run(x2));
  }
}

TEST(GraphCapture, RptcnParityMatchesEagerRunner) {
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6, 6};  // dilations 1, 2, 4
  opt.fc_dim = 6;
  opt.seed = 21;
  nn::RptcnNet net(opt);
  expect_forward_parity(eval_forward(net), 3, 12);
}

TEST(GraphCapture, TcnVariantParityWithoutAttentionOrFc) {
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {5, 7};  // channel change exercises the 1x1 shortcut
  opt.use_attention = false;
  opt.use_fc = false;
  opt.seed = 22;
  nn::RptcnNet net(opt);
  expect_forward_parity(eval_forward(net), 2, 10);
}

TEST(GraphCapture, LstmParityMatchesEagerRunner) {
  nn::LstmNetOptions opt;
  opt.input_features = 3;
  opt.hidden = 8;
  opt.horizon = 2;
  opt.seed = 23;
  nn::LstmNet net(opt);
  expect_forward_parity(eval_forward(net), 3, 12);
}

TEST(GraphCapture, BiLstmParityMatchesEagerRunner) {
  nn::BiLstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 6;
  opt.seed = 24;
  nn::BiLstmNet net(opt);
  expect_forward_parity(eval_forward(net), 2, 9);
}

TEST(GraphCapture, CnnLstmParityMatchesEagerRunner) {
  nn::CnnLstmOptions opt;
  opt.input_features = 3;
  opt.conv_channels = 4;
  opt.hidden = 8;
  opt.seed = 25;
  nn::CnnLstm net(opt);
  expect_forward_parity(eval_forward(net), 3, 12);
}

TEST(GraphCapture, ServingPlanFoldsWeightNorm) {
  // The TCN convs are weight-normed; a serving plan's leaves are frozen, so
  // every weight_norm folds to its probe value at compile time instead of
  // being recomputed on each replay.
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 26;
  nn::RptcnNet net(opt);
  const opt::ForwardFn forward = eval_forward(net);
  const Tensor x = random_tensor({2, 3, 12}, 27);
  ag::trace::TapeTrace trace;
  {
    NoGradScope no_grad;
    ag::trace::Recording rec(&trace);
    (void)forward(Variable(x));
  }
  ASSERT_TRUE(std::any_of(
      trace.ops.begin(), trace.ops.end(), [](const ag::trace::OpRecord& r) {
        return r.kind == ag::trace::OpKind::kWeightNorm;
      })) << "the eager forward no longer weight-normalises";

  const auto exec = compile_forward(forward, x);
  ASSERT_NE(exec, nullptr);
  for (const TensorOp& step : exec->steps()) {
    EXPECT_NE(step.name, "weight_norm") << "weight_norm replays per call";
    EXPECT_NE(step.name, "pack_w") << "weight prepack replays per call";
  }
  expect_same_bits(eager(forward, x), exec->run(x));
}

bool has_step(const Executable& exec, const std::string& name) {
  return std::any_of(exec.steps().begin(), exec.steps().end(),
                     [&](const TensorOp& s) { return s.name == name; });
}

TEST(GraphCapture, PaperShapeRptcnParityThroughTheGemmConvPath) {
  // The paper's configuration ({16,16,16}, k=3, window 24): the parity case
  // for the compiler's conv emitter at the serving shape.
  nn::RptcnOptions opt;
  opt.input_features = 4;
  opt.tcn.channels = {16, 16, 16};
  opt.tcn.kernel_size = 3;
  opt.fc_dim = 16;
  opt.seed = 29;
  nn::RptcnNet net(opt);
  const opt::ForwardFn forward = eval_forward(net);
  {
    const auto exec = compile_forward(forward, random_tensor({1, 4, 24}, 30));
    ASSERT_NE(exec, nullptr);
    EXPECT_TRUE(has_step(*exec, "conv1d"));
  }
  expect_forward_parity(forward, 4, 24);
}

TEST(GraphCapture, BatchedProgramRowsMatchEachWindowsN1Program) {
  // A program for N=10 and one for N=1 differ in which GEMM path each conv
  // and linear takes and in which weights are prepacked; every row of the
  // batched program must still equal its window's N=1 program bit-for-bit.
  // A 2-feature RPTCN, so the first conv reduces over only Cin·K = 6.
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {16, 16, 16};
  opt.tcn.kernel_size = 3;
  opt.fc_dim = 16;
  opt.seed = 43;
  nn::RptcnNet net(opt);
  const opt::ForwardFn forward = eval_forward(net);
  const std::size_t n = 10;
  const Tensor x = random_tensor({n, 2, 24}, 44);
  const auto batched = compile_forward(forward, x);
  ASSERT_NE(batched, nullptr);
  const Tensor out = batched->run(x);

  Tensor one = random_tensor({1, 2, 24}, 45);
  const auto single = compile_forward(forward, one);
  ASSERT_NE(single, nullptr);
  const std::size_t row = out.size() / n;
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(x.raw() + i * one.size(), one.size(), one.raw());
    const Tensor got = single->run(one);
    ASSERT_EQ(got.size(), row);
    EXPECT_EQ(std::memcmp(out.raw() + i * row, got.raw(), row * sizeof(float)),
              0)
        << "row " << i << " differs from its window's N=1 program";
  }
}

TEST(GraphCapture, RecompilingTheSameForwardGivesTheSameProgram) {
  // PlanCache eviction recompiles a shape from whatever request arrives
  // next; the program must not depend on which probe it was compiled from.
  nn::LstmNetOptions opt;
  opt.input_features = 3;
  opt.hidden = 8;
  opt.seed = 34;
  nn::LstmNet net(opt);
  const opt::ForwardFn forward = eval_forward(net);
  const auto a = compile_forward(forward, random_tensor({3, 3, 10}, 35));
  const auto b = compile_forward(forward, random_tensor({3, 3, 10}, 36));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->step_count(), b->step_count());
  for (std::size_t i = 0; i < a->step_count(); ++i)
    EXPECT_EQ(a->steps()[i].name, b->steps()[i].name) << "step " << i;
  EXPECT_EQ(a->arena_floats(), b->arena_floats());
  const Tensor x = random_tensor({3, 3, 10}, 37);
  expect_same_bits(a->run(x), b->run(x));
}

TEST(GraphCapture, ProgramRejectsInputsOfAnotherShape) {
  nn::CnnLstmOptions opt;
  opt.input_features = 2;
  opt.conv_channels = 4;
  opt.hidden = 6;
  opt.seed = 38;
  nn::CnnLstm net(opt);
  const auto exec =
      compile_forward(eval_forward(net), random_tensor({2, 2, 12}, 39));
  ASSERT_NE(exec, nullptr);
  EXPECT_THROW((void)exec->run(random_tensor({3, 2, 12}, 40)), CheckError);
  EXPECT_THROW((void)exec->run(random_tensor({2, 2, 13}, 40)), CheckError);
  EXPECT_THROW((void)exec->run(random_tensor({2, 12}, 40)), CheckError);
}

TEST(GraphCapture, TrainingModeForwardIsNotServable) {
  // Dropout draws are live in training mode: the forward-only entry
  // declines rather than freezing one draw's masks into the program.
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {4};
  opt.tcn.dropout = 0.2f;
  opt.fc_dim = 4;
  nn::RptcnNet net(opt);
  net.set_training(true);
  const opt::ForwardFn forward = [&net](const Variable& x) {
    return net.forward(x);
  };
  EXPECT_EQ(compile_forward(forward, random_tensor({2, 2, 8}, 28)), nullptr);
}

// -- plan cache ---------------------------------------------------------------

TEST(GraphPlanCache, CapturesOncePerShapeAndCountsHitsMisses) {
  ObsGuard obs_on;
  auto& hits = obs::metrics().counter("graph/plan_cache_hits");
  auto& misses = obs::metrics().counter("graph/plan_cache_misses");
  const auto h0 = hits.value();
  const auto m0 = misses.value();

  int captures = 0;
  PlanCache cache([&](const Tensor& probe) {
    ++captures;
    return copy_capture(probe);
  });
  const auto a = cache.get(Tensor({1, 2, 8}));
  const auto b = cache.get(Tensor({1, 2, 8}));
  const auto c = cache.get(Tensor({2, 2, 8}));
  EXPECT_EQ(captures, 2);
  EXPECT_EQ(a, b) << "second get of one shape must return the cached plan";
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(hits.value() - h0, 1u);
  EXPECT_EQ(misses.value() - m0, 2u);
}

TEST(GraphPlanCache, EvictsOldestShapeBeyondMaxPlans) {
  PlanCache cache(copy_capture);
  for (std::size_t t = 1; t <= PlanCache::kMaxPlans + 1; ++t)
    cache.get(Tensor({1, 1, t}));
  EXPECT_EQ(cache.size(), PlanCache::kMaxPlans);
  const auto shapes = cache.shapes();
  const std::array<std::size_t, 3> oldest{1, 1, 1};
  EXPECT_EQ(std::count(shapes.begin(), shapes.end(), oldest), 0)
      << "oldest-inserted shape should have been evicted";
  // The evicted shape is re-capturable (a fresh miss, not an error).
  EXPECT_NE(cache.get(Tensor({1, 1, 1})), nullptr);
}

TEST(GraphPlanCache, DeclinedShapeStaysPinnedWithoutRecapture) {
  int captures = 0;
  PlanCache cache([&](const Tensor&) -> std::shared_ptr<const Executable> {
    ++captures;
    return nullptr;
  });
  EXPECT_EQ(cache.get(Tensor({1, 2, 8})), nullptr);
  EXPECT_EQ(cache.get(Tensor({1, 2, 8})), nullptr);
  EXPECT_EQ(captures, 1) << "a declined shape must not be recompiled per call";
}

TEST(GraphMetrics, ReplaysAndArenaBytesAreRecorded) {
  ObsGuard obs_on;
  auto& replays = obs::metrics().counter("graph/replays");
  const auto r0 = replays.value();
  const auto exec = copy_executable(2, 3, 4);
  const Tensor x = random_tensor({2, 3, 4}, 41);
  (void)exec->run(x);
  (void)exec->run(x);
  EXPECT_EQ(replays.value() - r0, 2u);
}

// -- serving integration ------------------------------------------------------

TEST(GraphSession, PlannedRunMatchesEagerFallback) {
  PlanningGuard guard;
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 27;
  nn::RptcnNet net(opt);
  serve::InferenceSession session(net);
  const Tensor x = random_tensor({2, 3, 12}, 51);

  set_planning_enabled(true);
  const Tensor planned = session.run(x);
  set_planning_enabled(false);
  const Tensor eager = session.run(x);
  expect_same_bits(eager, planned);
}

TEST(GraphSession, ShapeErrorNamesExpectedAndCapturedShapes) {
  PlanningGuard guard;
  set_planning_enabled(true);
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  nn::RptcnNet net(opt);
  serve::InferenceSession session(net);
  (void)session.run(random_tensor({1, 3, 12}, 61));  // seeds the plan cache

  try {
    (void)session.run(random_tensor({2, 4, 12}, 62));  // wrong F
    FAIL() << "expected CheckError for wrong feature count";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[N, 3, T]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("captured plans:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[1, 3, 12]"), std::string::npos) << msg;
  }

  EXPECT_THROW((void)session.run(random_tensor({4, 12}, 63)), CheckError);
}

}  // namespace
}  // namespace rptcn::graph
