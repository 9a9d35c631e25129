// Tests for the planned training step (src/graph/train.*): bitwise parity
// of the captured forward+backward+Adam program against the eager tape loop
// — per-step parameter updates, whole-fit loss curves and final predictions
// for every registry net — plus replays that read weights written outside
// the plan, the planning-disabled and non-Adam factory declines, the
// capture/replay/fallback metrics, and the stream retrain path (a planned-
// trained generation served through the engine must be bit-identical to a
// tape-trained one). The "Graph" prefix is matched by the TSAN CI job's -R
// filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "data/timeseries.h"
#include "data/windowing.h"
#include "graph/plan.h"
#include "graph/train.h"
#include "models/net_forecaster.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "opt/trainer.h"
#include "serve/engine.h"
#include "stream/channel.h"
#include "stream/retrain.h"
#include "stream/source.h"
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

void expect_params_same_bits(nn::Module& a, nn::Module& b) {
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Tensor& ta = pa[i].second.value();
    const Tensor& tb = pb[i].second.value();
    ASSERT_EQ(ta.size(), tb.size());
    EXPECT_EQ(std::memcmp(ta.raw(), tb.raw(), ta.size() * sizeof(float)), 0)
        << "parameter " << pa[i].first
        << " diverged between planned and eager training";
  }
}

/// One eager training batch, exactly the fallback sequence in opt::fit.
float eager_step(nn::Module& net, const opt::ForwardFn& forward,
                 opt::Adam& adam, std::vector<Variable>& params,
                 const Tensor& x, const Tensor& y,
                 const opt::TrainOptions& options) {
  adam.zero_grad();
  const Variable pred = forward(Variable(x));
  Variable loss = opt::apply_loss(pred, y, options.loss, options.pinball_tau);
  loss.backward();
  if (options.clip_norm > 0.0f) opt::clip_grad_norm(params, options.clip_norm);
  adam.step();
  return loss.value().item();
}

// -- per-step parity ----------------------------------------------------------

TEST(GraphTrainStep, StepSequenceBitMatchesEagerAdamUpdates) {
  ObsGuard obs_on;
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 77;
  nn::RptcnNet planned_net(opt);
  nn::RptcnNet eager_net(opt);  // identical init and dropout stream
  planned_net.set_training(true);
  eager_net.set_training(true);

  opt::TrainOptions options;
  options.loss = opt::Loss::kMse;
  options.clip_norm = 1.0f;
  opt::Adam planned_adam(planned_net.parameters(), 1e-3f);
  opt::Adam eager_adam(eager_net.parameters(), 1e-3f);
  std::vector<Variable> eager_params = eager_net.parameters();
  const opt::ForwardFn planned_fwd = [&](const Variable& v) {
    return planned_net.forward(v);
  };
  const opt::ForwardFn eager_fwd = [&](const Variable& v) {
    return eager_net.forward(v);
  };

  auto step = make_planned_step(planned_net, planned_fwd, planned_adam, options);
  ASSERT_NE(step, nullptr);

  const std::uint64_t captures0 =
      obs::metrics().counter("graph/train_captures").value();
  const std::uint64_t replays0 =
      obs::metrics().counter("graph/train_replays").value();

  // Batch 1 captures (the probe is the step), batches 2..4 replay.
  for (std::uint64_t i = 0; i < 4; ++i) {
    const Tensor x = random_tensor({4, 3, 12}, 300 + i);
    const Tensor y = random_tensor({4, 1}, 400 + i);
    float planned_loss = -1.0f;
    ASSERT_TRUE(step->step(x, y, &planned_loss));
    const float eager_loss =
        eager_step(eager_net, eager_fwd, eager_adam, eager_params, x, y,
                   options);
    EXPECT_EQ(planned_loss, eager_loss) << "batch " << i;
    expect_params_same_bits(planned_net, eager_net);
  }

  EXPECT_EQ(obs::metrics().counter("graph/train_captures").value() - captures0,
            1u)
      << "one shape must be captured exactly once";
  EXPECT_EQ(obs::metrics().counter("graph/train_replays").value() - replays0,
            3u);
  EXPECT_GT(obs::metrics().gauge("graph/train_arena_bytes").value(), 0.0);
}

TEST(GraphTrainStep, PinballLossStepMatchesEager) {
  nn::LstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 6;
  opt.seed = 78;
  nn::LstmNet planned_net(opt);
  nn::LstmNet eager_net(opt);
  planned_net.set_training(true);
  eager_net.set_training(true);

  opt::TrainOptions options;
  options.loss = opt::Loss::kPinball;
  options.pinball_tau = 0.9f;
  options.clip_norm = 0.5f;
  opt::Adam planned_adam(planned_net.parameters(), 2e-3f);
  opt::Adam eager_adam(eager_net.parameters(), 2e-3f);
  std::vector<Variable> eager_params = eager_net.parameters();
  const opt::ForwardFn planned_fwd = [&](const Variable& v) {
    return planned_net.forward(v);
  };
  const opt::ForwardFn eager_fwd = [&](const Variable& v) {
    return eager_net.forward(v);
  };
  auto step = make_planned_step(planned_net, planned_fwd, planned_adam, options);
  ASSERT_NE(step, nullptr);

  for (std::uint64_t i = 0; i < 3; ++i) {
    const Tensor x = random_tensor({3, 2, 10}, 500 + i);
    const Tensor y = random_tensor({3, 1}, 600 + i);
    float planned_loss = -1.0f;
    ASSERT_TRUE(step->step(x, y, &planned_loss));
    EXPECT_EQ(planned_loss, eager_step(eager_net, eager_fwd, eager_adam,
                                       eager_params, x, y, options));
    expect_params_same_bits(planned_net, eager_net);
  }
}

TEST(GraphTrainStep, UntracedInputDerivedOpFallsBackInsteadOfBakingTheProbe) {
  // ag::mul_scalar records no trace op. The input needs no gradient, so its
  // result is parentless like a leaf, yet it derives from the batch: baking
  // it as a constant would train every later batch on the probe's inputs.
  // The compile must decline and the shape must train eagerly.
  ObsGuard obs_on;
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 80;
  nn::RptcnNet planned_net(opt);
  nn::RptcnNet eager_net(opt);
  planned_net.set_training(true);
  eager_net.set_training(true);

  opt::TrainOptions options;
  options.loss = opt::Loss::kMse;
  options.clip_norm = 1.0f;
  opt::Adam planned_adam(planned_net.parameters(), 1e-3f);
  opt::Adam eager_adam(eager_net.parameters(), 1e-3f);
  std::vector<Variable> planned_params = planned_net.parameters();
  std::vector<Variable> eager_params = eager_net.parameters();
  const opt::ForwardFn planned_fwd = [&](const Variable& v) {
    return planned_net.forward(ag::mul_scalar(v, 2.0f));
  };
  const opt::ForwardFn eager_fwd = [&](const Variable& v) {
    return eager_net.forward(ag::mul_scalar(v, 2.0f));
  };
  auto step = make_planned_step(planned_net, planned_fwd, planned_adam, options);
  ASSERT_NE(step, nullptr);

  const auto fallbacks = [] {
    return obs::metrics().counter("graph/train_fallbacks").value();
  };
  const std::uint64_t f0 = fallbacks();
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Tensor x = random_tensor({4, 3, 12}, 800 + i);
    const Tensor y = random_tensor({4, 1}, 810 + i);
    float planned_loss = -1.0f;
    if (!step->step(x, y, &planned_loss))  // pinned shape: opt::fit's path
      planned_loss = eager_step(planned_net, planned_fwd, planned_adam,
                                planned_params, x, y, options);
    EXPECT_EQ(planned_loss, eager_step(eager_net, eager_fwd, eager_adam,
                                       eager_params, x, y, options))
        << "batch " << i;
    expect_params_same_bits(planned_net, eager_net);
  }
  EXPECT_EQ(fallbacks() - f0, 3u) << "the shape was not pinned to eager";

  // The forward-only entry shares the resolver: compiled on one input, the
  // same forward must not serve a second, different input with the probe's
  // values.
  planned_net.set_training(false);
  const Tensor probe = random_tensor({2, 3, 12}, 820);
  const Tensor other = random_tensor({2, 3, 12}, 821);
  const auto exec = compile_forward(planned_fwd, probe);
  EXPECT_EQ(exec, nullptr) << "an untraced input-derived op was baked";
  NoGradScope no_grad;
  const Tensor expected = planned_fwd(Variable(other)).value();
  const Tensor served = exec != nullptr ? exec->run(other) : expected;
  ASSERT_EQ(served.shape(), expected.shape());
  EXPECT_EQ(std::memcmp(served.raw(), expected.raw(),
                        expected.size() * sizeof(float)),
            0);
}

// -- out-of-plan weights and escape hatches -----------------------------------

TEST(GraphTrainStep, ReplayReadsWeightsWrittenOutOfPlan) {
  // A program reads each parameter through its node and re-packs weight
  // panels at every replay, so a write outside the plan (a checkpoint
  // load, a best-epoch restore) reaches the next replay without a
  // recompile. Dropout 0: the eager twin draws no masks to keep in step.
  ObsGuard obs_on;
  nn::LstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 5;
  opt.dropout = 0.0f;
  opt.seed = 79;
  nn::LstmNet net(opt);
  nn::LstmNet twin(opt);
  net.set_training(true);
  twin.set_training(true);
  opt::TrainOptions options;
  opt::Adam adam(net.parameters(), 1e-3f);
  const opt::ForwardFn fwd = [&](const Variable& v) { return net.forward(v); };
  auto step = make_planned_step(net, fwd, adam, options);
  ASSERT_NE(step, nullptr);

  const auto captures = [&] {
    return obs::metrics().counter("graph/train_captures").value();
  };
  const auto replays = [&] {
    return obs::metrics().counter("graph/train_replays").value();
  };
  const Tensor x = random_tensor({2, 2, 8}, 700);
  const Tensor y = random_tensor({2, 1}, 701);
  const std::uint64_t c0 = captures();
  float loss = 0.0f;
  ASSERT_TRUE(step->step(x, y, &loss));  // capture
  ASSERT_TRUE(step->step(x, y, &loss));  // replay
  EXPECT_EQ(captures() - c0, 1u);

  // Overwrite every parameter out of plan; the twin gets the same values.
  const auto params = net.named_parameters();
  const auto twin_params = twin.named_parameters();
  ASSERT_EQ(params.size(), twin_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    Variable p = params[i].second;
    Variable q = twin_params[i].second;
    const Tensor w = random_tensor(p.shape(), 710 + i);
    p.mutable_value() = w;
    q.mutable_value() = w;
  }
  const std::uint64_t r0 = replays();
  float replayed = 0.0f;
  ASSERT_TRUE(step->step(x, y, &replayed));
  EXPECT_EQ(captures() - c0, 1u) << "the out-of-plan write forced a capture";
  EXPECT_EQ(replays() - r0, 1u);

  const Variable pred = twin.forward(Variable(x));
  const Variable eager_loss =
      opt::apply_loss(pred, y, options.loss, options.pinball_tau);
  const float eager = eager_loss.value().item();
  EXPECT_NE(replayed, loss) << "the new weights left the loss unchanged";
  EXPECT_EQ(std::memcmp(&replayed, &eager, sizeof(float)), 0)
      << "replayed " << replayed << ", eager twin " << eager;
}

TEST(GraphTrainStep, FactoryDeclinesWhenPlanningDisabled) {
  nn::LstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 4;
  nn::LstmNet net(opt);
  opt::TrainOptions options;
  const opt::ForwardFn fwd = [&](const Variable& v) { return net.forward(v); };

  PlanningGuard guard;
  set_planning_enabled(false);
  opt::Adam adam(net.parameters(), 1e-3f);
  EXPECT_EQ(make_planned_step(net, fwd, adam, options), nullptr);
}

TEST(GraphTrainStep, FactoryDeclinesAnAdamOverOtherParameters) {
  // The gradient slab and the clip reduction follow Adam's parameter order,
  // so the step is planned only when that list is the model's own.
  nn::LstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 4;
  nn::LstmNet net(opt);
  nn::LstmNet twin(opt);
  opt::TrainOptions options;
  const opt::ForwardFn fwd = [&](const Variable& v) { return net.forward(v); };
  PlanningGuard guard;
  set_planning_enabled(true);

  opt::Adam own(net.parameters(), 1e-3f);
  EXPECT_NE(make_planned_step(net, fwd, own, options), nullptr);

  opt::Adam foreign(twin.parameters(), 1e-3f);
  EXPECT_EQ(make_planned_step(net, fwd, foreign, options), nullptr)
      << "same shapes, but another net's parameters";

  std::vector<Variable> partial = net.parameters();
  partial.pop_back();
  opt::Adam subset(partial, 1e-3f);
  EXPECT_EQ(make_planned_step(net, fwd, subset, options), nullptr);

  std::vector<Variable> reordered = net.parameters();
  std::reverse(reordered.begin(), reordered.end());
  opt::Adam permuted(reordered, 1e-3f);
  EXPECT_EQ(make_planned_step(net, fwd, permuted, options), nullptr);
}

// -- whole-fit parity for every registry net ----------------------------------

models::ForecastDataset trainer_dataset() {
  Rng rng(17);
  const std::size_t length = 160;
  std::vector<double> target{0.5};
  for (std::size_t i = 1; i < length; ++i)
    target.push_back(std::clamp(
        0.5 + 0.85 * (target.back() - 0.5) + rng.normal(0.0, 0.02), 0.0, 1.0));
  data::TimeSeriesFrame frame;
  frame.add("cpu", target);

  data::WindowOptions wopt;
  wopt.window = 12;
  wopt.horizon = 1;
  auto split = data::chrono_split(data::make_windows(frame, "cpu", wopt));

  models::ForecastDataset ds;
  ds.train = std::move(split.train);
  ds.valid = std::move(split.valid);
  ds.test = std::move(split.test);
  ds.window = wopt.window;
  ds.horizon = wopt.horizon;
  ds.target_channel = 0;
  ds.target_series = target;
  ds.train_len = ds.train.samples() + wopt.window;
  ds.valid_len = ds.valid.samples();
  return ds;
}

/// Fits a NetForecaster over `make_net` twice — planning off, then on — and
/// demands identical loss curves (double for double) and bit-identical
/// predictions.
void expect_fit_parity(const models::NetFactory& make_net) {
  ObsGuard obs_on;
  const auto ds = trainer_dataset();
  models::NnTrainConfig cfg;
  cfg.max_epochs = 2;
  cfg.patience = 2;
  cfg.seed = 5;

  models::NetForecaster tape("tape", cfg, make_net);
  {
    PlanningGuard guard;
    set_planning_enabled(false);
    tape.fit(ds);
  }

  const std::uint64_t captures0 =
      obs::metrics().counter("graph/train_captures").value();
  const std::uint64_t fallbacks0 =
      obs::metrics().counter("graph/train_fallbacks").value();
  PlanningGuard guard;
  set_planning_enabled(true);
  models::NetForecaster planned("planned", cfg, make_net);
  planned.fit(ds);
  EXPECT_GT(obs::metrics().counter("graph/train_captures").value(), captures0)
      << "planned fit never captured a program for this net";
  EXPECT_EQ(obs::metrics().counter("graph/train_fallbacks").value(), fallbacks0)
      << "some batch shape failed capture and fell back to the tape";

  ASSERT_EQ(tape.curves().train_loss.size(),
            planned.curves().train_loss.size());
  for (std::size_t i = 0; i < tape.curves().train_loss.size(); ++i)
    EXPECT_EQ(tape.curves().train_loss[i], planned.curves().train_loss[i])
        << "train loss diverged at epoch " << i;
  ASSERT_EQ(tape.curves().valid_loss.size(),
            planned.curves().valid_loss.size());
  for (std::size_t i = 0; i < tape.curves().valid_loss.size(); ++i)
    EXPECT_EQ(tape.curves().valid_loss[i], planned.curves().valid_loss[i])
        << "valid loss diverged at epoch " << i;

  const Tensor probe = random_tensor({3, 1, 12}, 900);
  const Tensor a = tape.predict(probe);
  const Tensor b = planned.predict(probe);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0)
      << "final weights diverged between planned and eager fits";
}

TEST(GraphTrainStep, RptcnFitBitMatchesEagerFit) {
  nn::RptcnOptions opt;
  opt.tcn.channels = {4, 4};
  opt.fc_dim = 4;
  expect_fit_parity(models::net_factory<nn::RptcnNet>(opt));
}

TEST(GraphTrainStep, LstmFitBitMatchesEagerFit) {
  nn::LstmNetOptions opt;
  opt.hidden = 6;
  expect_fit_parity(models::net_factory<nn::LstmNet>(opt));
}

TEST(GraphTrainStep, BiLstmFitBitMatchesEagerFit) {
  nn::BiLstmNetOptions opt;
  opt.hidden = 5;
  expect_fit_parity(models::net_factory<nn::BiLstmNet>(opt));
}

TEST(GraphTrainStep, CnnLstmFitBitMatchesEagerFit) {
  nn::CnnLstmOptions opt;
  opt.conv_channels = 4;
  opt.hidden = 6;
  expect_fit_parity(models::net_factory<nn::CnnLstm>(opt));
}

// -- stream retrain -----------------------------------------------------------

trace::WorkloadParams steady_params() {
  trace::WorkloadParams p;
  p.base_level = 0.25;
  p.diurnal_amplitude = 0.10;
  p.noise_sigma = 0.03;
  p.ar_coefficient = 0.85;
  p.mutation_rate = 0.0;
  p.burst_rate = 0.0;
  return p;
}

stream::RetrainOptions tiny_retrain() {
  stream::RetrainOptions r;
  r.model_name = "RPTCN";
  r.model.nn.max_epochs = 2;
  r.model.nn.patience = 2;
  r.model.nn.seed = 9;
  r.model.rptcn.tcn.channels = {6, 6};
  r.model.rptcn.fc_dim = 6;
  r.history = 200;
  r.window.window = 16;
  r.window.horizon = 1;
  r.min_ticks_between = 0;
  return r;
}

TEST(GraphTrainStep, PlannedRetrainHotSwapBitMatchesTapeTrained) {
  const data::TimeSeriesFrame full =
      stream::make_mutating_trace(steady_params(), steady_params(), 260, 0, 29)
          .frame;
  stream::IngestChannel channel({"cpu_util_percent", "mem_util_percent"},
                                {512});
  channel.replay(full);
  const data::TimeSeriesFrame history = channel.history(200);
  const stream::OnlineNormalizer& norm = channel.normalizer();

  // Reference: a tape-trained generation on the identical history.
  const stream::RetrainOptions opt = tiny_retrain();
  PlanningGuard guard;
  set_planning_enabled(false);
  stream::FittedGeneration ref =
      stream::fit_generation(history, norm, opt, 2, "tape");
  ASSERT_NE(ref.session, nullptr) << ref.outcome.error;

  // The retrain path: the same fit with the planned step on (the default).
  set_planning_enabled(true);
  stream::FittedGeneration planned =
      stream::fit_generation(history, norm, opt, 2, "planned");
  ASSERT_NE(planned.session, nullptr) << planned.outcome.error;

  // Served through one engine, each request pinned to its generation, the
  // planned-trained weights must predict exactly what the tape-trained
  // reference predicts: planned training is invisible to everything
  // downstream of fit.
  serve::BatchingEngine engine;
  const Tensor lw = channel.latest_window(opt.window.window);
  std::future<Tensor> live = engine.submit(lw, planned.session);
  std::future<Tensor> tape_future = engine.submit(lw, ref.session);
  const Tensor served = live.get();
  const Tensor tape = tape_future.get();
  ASSERT_EQ(served.size(), tape.size());
  for (std::size_t h = 0; h < tape.size(); ++h)
    ASSERT_EQ(served.raw()[h], tape.raw()[h])
        << "planned-trained generation diverged from tape training at " << h;
}

}  // namespace
}  // namespace rptcn::graph
