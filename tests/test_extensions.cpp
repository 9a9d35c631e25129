// Tests for the paper's future-work extensions: difference features,
// correlation-weighted expansion, quantile (pinball) training, the BiLSTM
// related-work baseline, and the CLI flag parser.
#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "autograd/ops.h"
#include "common/flags.h"
#include "common/rng.h"
#include "data/expansion.h"
#include "data/windowing.h"
#include "models/net_forecaster.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"
#include "opt/optimizer.h"
#include "opt/trainer.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

// --- difference expansion ----------------------------------------------------

TEST(DiffExpansion, AppendsDifferenceColumns) {
  data::TimeSeriesFrame f;
  f.add("cpu", {1.0, 4.0, 9.0});
  f.add("mem", {2.0, 2.0, 5.0});
  const auto e = data::expand_with_differences(f);
  EXPECT_EQ(e.indicators(), 4u);
  EXPECT_EQ(e.length(), 2u);
  EXPECT_DOUBLE_EQ(e.column("cpu")[0], 4.0);     // shifted original
  EXPECT_DOUBLE_EQ(e.column("cpu.diff")[0], 3.0);
  EXPECT_DOUBLE_EQ(e.column("cpu.diff")[1], 5.0);
  EXPECT_DOUBLE_EQ(e.column("mem.diff")[0], 0.0);
}

TEST(DiffExpansion, RejectsTooShort) {
  data::TimeSeriesFrame f;
  f.add("x", {1.0});
  EXPECT_THROW(data::expand_with_differences(f), CheckError);
}

// --- weighted expansion --------------------------------------------------------

data::TimeSeriesFrame weighted_fixture() {
  Rng rng(3);
  std::vector<double> cpu(200), strong(200), weak(200);
  for (std::size_t i = 0; i < 200; ++i) {
    cpu[i] = rng.normal();
    strong[i] = 0.95 * cpu[i] + 0.05 * rng.normal();
    weak[i] = 0.1 * cpu[i] + 0.9 * rng.normal();
  }
  data::TimeSeriesFrame f;
  f.add("cpu", std::move(cpu));
  f.add("strong", std::move(strong));
  f.add("weak", std::move(weak));
  return f;
}

TEST(WeightedExpansion, CopiesScaleWithCorrelation) {
  const auto e = data::expand_weighted(weighted_fixture(), "cpu", 4);
  // cpu: |PCC|=1 -> 4 copies; strong ~0.95+ -> 4; weak ~0.1 -> 1.
  EXPECT_TRUE(e.has("cpu.lag3"));
  EXPECT_TRUE(e.has("strong.lag3"));
  EXPECT_TRUE(e.has("weak"));
  EXPECT_FALSE(e.has("weak.lag1"));
}

TEST(WeightedExpansion, ColumnsRemainAligned) {
  const auto src = weighted_fixture();
  const auto e = data::expand_weighted(src, "cpu", 3, 2);
  // drop = (3-1)*2 = 4 rows; unlagged columns equal shifted source.
  EXPECT_EQ(e.length(), src.length() - 4);
  for (std::size_t t = 0; t < e.length(); ++t)
    ASSERT_DOUBLE_EQ(e.column("cpu")[t], src.column("cpu")[t + 4]);
  for (std::size_t t = 0; t < e.length(); ++t)
    ASSERT_DOUBLE_EQ(e.column("cpu.lag2")[t], src.column("cpu")[t + 2]);
}

TEST(WeightedExpansion, RejectsBadArguments) {
  EXPECT_THROW(data::expand_weighted(weighted_fixture(), "cpu", 0), CheckError);
  EXPECT_THROW(data::expand_weighted(weighted_fixture(), "nope", 2),
               CheckError);
}

// --- time_reverse / concat_cols -----------------------------------------------

TEST(TimeReverse, ValueIsReversed) {
  Variable x(Tensor::from({1, 1, 4}, {1, 2, 3, 4}), true);
  const Variable y = ag::time_reverse(x);
  EXPECT_FLOAT_EQ(y.value().at(0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.value().at(0, 0, 3), 1.0f);
}

TEST(TimeReverse, IsInvolution) {
  Rng rng(5);
  Variable x(Tensor::randn({2, 3, 7}, rng));
  NoGradScope no_grad;
  const Variable twice = ag::time_reverse(ag::time_reverse(x));
  EXPECT_TRUE(allclose(twice.value(), x.value(), 0.0f, 0.0f));
}

TEST(TimeReverse, GradCheck) {
  Rng rng(6);
  const auto r = ag::gradcheck(
      [](const std::vector<Variable>& in) {
        Variable y = ag::time_reverse(in[0]);
        return ag::mul(y, y);
      },
      {Tensor::randn({2, 2, 5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(ConcatCols, ValuesSideBySide) {
  Variable a(Tensor::from({2, 2}, {1, 2, 3, 4}), true);
  Variable b(Tensor::from({2, 1}, {9, 8}), true);
  const Variable c = ag::concat_cols(a, b);
  EXPECT_EQ(c.shape(), (std::vector<std::size_t>{2, 3}));
  EXPECT_FLOAT_EQ(c.value().at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(c.value().at(1, 0), 3.0f);
}

TEST(ConcatCols, GradSplitsCorrectly) {
  Rng rng(7);
  const auto r = ag::gradcheck(
      [](const std::vector<Variable>& in) {
        Variable c = ag::concat_cols(in[0], in[1]);
        return ag::mul(c, c);
      },
      {Tensor::randn({3, 2}, rng), Tensor::randn({3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(ConcatCols, RejectsBatchMismatch) {
  Variable a(Tensor({2, 2}));
  Variable b(Tensor({3, 2}));
  EXPECT_THROW(ag::concat_cols(a, b), CheckError);
}

// --- pinball loss ----------------------------------------------------------------

TEST(PinballLoss, KnownValues) {
  // tau = 0.9: under-prediction costs 0.9 per unit, over costs 0.1.
  Variable pred(Tensor::from({2}, {0.0f, 2.0f}), true);
  const Tensor target = Tensor::from({2}, {1.0f, 1.0f});
  Variable loss = ag::pinball_loss(pred, target, 0.9f);
  EXPECT_NEAR(loss.value().item(), (0.9f * 1.0f + 0.1f * 1.0f) / 2.0f, 1e-6);
  loss.backward();
  EXPECT_NEAR(pred.grad()[0], -0.9f / 2.0f, 1e-6);
  EXPECT_NEAR(pred.grad()[1], 0.1f / 2.0f, 1e-6);
}

TEST(PinballLoss, TauHalfIsHalfMae) {
  Rng rng(8);
  const Tensor target = Tensor::randn({8}, rng);
  Variable pred(Tensor::randn({8}, rng), false);
  const float pin = ag::pinball_loss(pred, target, 0.5f).value().item();
  const float mae = ag::mae_loss(pred, target).value().item();
  EXPECT_NEAR(pin, 0.5f * mae, 1e-5);
}

TEST(PinballLoss, RejectsBadTau) {
  Variable pred(Tensor({2}), true);
  EXPECT_THROW(ag::pinball_loss(pred, Tensor({2}), 0.0f), CheckError);
  EXPECT_THROW(ag::pinball_loss(pred, Tensor({2}), 1.0f), CheckError);
}

TEST(PinballLoss, MinimizerIsQuantile) {
  // Fit one shared scalar to N(0,1) samples with tau = 0.9 through the
  // autograd pinball loss: the optimum is the 0.9 quantile (~1.2816).
  // The scalar is broadcast over the batch via matmul with a ones column.
  Rng rng(9);
  const std::size_t n = 2000;
  Tensor samples({n, 1});
  for (auto& v : samples.data()) v = static_cast<float>(rng.normal());

  Variable scalar(Tensor::zeros({1, 1}), true);
  const Variable ones(Tensor::ones({n, 1}));
  opt::Adam adam({scalar}, 0.01f);
  for (int step = 0; step < 3000; ++step) {
    adam.zero_grad();
    Variable pred = ag::matmul(ones, scalar);  // [n,1], all equal
    Variable loss = ag::pinball_loss(pred, samples, 0.9f);
    loss.backward();
    adam.step();
  }
  EXPECT_NEAR(scalar.value().item(), 1.2816f, 0.1f);
}

// --- pinball training end-to-end ----------------------------------------------

TEST(QuantileTraining, PredictsUpperQuantile) {
  // Targets = last window value + noise; a tau=0.9 model must
  // systematically over-predict (cover ~90% of outcomes).
  Rng rng(10);
  opt::TrainData train, valid;
  const std::size_t n = 256;
  train.inputs = Tensor::randn({n, 1, 8}, rng);
  train.targets = Tensor({n, 1});
  for (std::size_t i = 0; i < n; ++i)
    train.targets.at(i, 0) =
        train.inputs.at(i, 0, 7) + static_cast<float>(rng.normal(0.0, 0.3));
  valid.inputs = Tensor::randn({64, 1, 8}, rng);
  valid.targets = Tensor({64, 1});
  for (std::size_t i = 0; i < 64; ++i)
    valid.targets.at(i, 0) =
        valid.inputs.at(i, 0, 7) + static_cast<float>(rng.normal(0.0, 0.3));

  nn::LstmNetOptions lopt;
  lopt.input_features = 1;
  lopt.hidden = 8;
  lopt.dropout = 0.0f;
  lopt.seed = 4;
  nn::LstmNet net(lopt);
  opt::Adam adam(net.parameters(), 0.02f);
  opt::TrainOptions topt;
  topt.loss = opt::Loss::kPinball;
  topt.pinball_tau = 0.9f;
  topt.max_epochs = 60;
  topt.patience = 60;
  opt::fit(net, [&net](const Variable& x) { return net.forward(x); }, train,
           valid, adam, topt);

  // Coverage on validation: predictions should exceed truth ~90% of the time.
  NoGradScope no_grad;
  net.set_training(false);
  std::size_t covered = 0;
  const Variable preds = net.forward(Variable(valid.inputs));
  for (std::size_t i = 0; i < 64; ++i)
    if (preds.value().at(i, 0) >= valid.targets.at(i, 0)) ++covered;
  EXPECT_GE(covered, 48u);  // >= 75% — well above the 50% a mean model gives
}

TEST(EvaluateLoss, MatchesObjective) {
  Rng rng(11);
  opt::TrainData data;
  data.inputs = Tensor::randn({16, 1, 4}, rng);
  data.targets = Tensor::randn({16, 1}, rng);
  const auto forward = [](const Variable& x) {
    return ag::reshape(ag::time_slice(x, 3), {x.dim(0), 1});
  };
  const double mse = opt::evaluate_loss(forward, data, 8, opt::Loss::kMse);
  const double mae = opt::evaluate_loss(forward, data, 8, opt::Loss::kMae);
  const double pin =
      opt::evaluate_loss(forward, data, 8, opt::Loss::kPinball, 0.5f);
  EXPECT_GT(mse, 0.0);
  EXPECT_NEAR(pin, 0.5 * mae, 1e-6);
}

TEST(QuantileTraining, ForecasterConfigPlumbsThrough) {
  // An RPTCN forecaster configured with pinball tau=0.9 must over-cover the
  // test targets relative to a symmetric-loss model.
  Rng rng(42);
  const std::size_t len = 360;
  std::vector<double> target{0.5};
  for (std::size_t i = 1; i < len; ++i)
    target.push_back(std::clamp(
        0.5 + 0.8 * (target.back() - 0.5) + rng.normal(0.0, 0.05), 0.0, 1.0));
  data::TimeSeriesFrame frame;
  frame.add("cpu", target);
  data::WindowOptions w;
  w.window = 10;
  w.horizon = 1;
  const auto all = data::make_windows(frame, "cpu", w);
  auto split = data::chrono_split(all);
  models::ForecastDataset ds;
  ds.train = std::move(split.train);
  ds.valid = std::move(split.valid);
  ds.test = std::move(split.test);
  ds.window = 10;
  ds.horizon = 1;
  ds.target_series = target;
  ds.train_len = ds.train.samples() + 10;

  models::NnTrainConfig cfg;
  cfg.max_epochs = 15;
  cfg.patience = 15;
  cfg.learning_rate = 3e-3f;
  cfg.loss = opt::Loss::kPinball;
  cfg.pinball_tau = 0.9f;
  nn::RptcnOptions arch;
  arch.tcn.channels = {8};
  arch.tcn.dropout = 0.0f;
  models::NetForecaster model("RPTCN", cfg,
                              models::net_factory<nn::RptcnNet>(arch));
  model.fit(ds);
  const Tensor preds = model.predict(ds.test.inputs);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < preds.dim(0); ++i)
    if (preds.at(i, 0) >= ds.test.targets.at(i, 0)) ++covered;
  // Quantile model must cover well above the ~50% a mean model achieves.
  EXPECT_GE(covered * 10, preds.dim(0) * 7);
}

// --- BiLSTM ----------------------------------------------------------------------

TEST(BiLstm, ForwardShape) {
  nn::BiLstmNetOptions opt;
  opt.input_features = 3;
  opt.hidden = 6;
  opt.horizon = 2;
  nn::BiLstmNet net(opt);
  Rng rng(12);
  Variable x(Tensor::randn({4, 3, 10}, rng));
  EXPECT_EQ(net.forward(x).shape(), (std::vector<std::size_t>{4, 2}));
}

TEST(BiLstm, HasTwoDirections) {
  nn::BiLstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 4;
  nn::BiLstmNet net(opt);
  bool has_fwd = false, has_bwd = false;
  for (const auto& [name, p] : net.named_parameters()) {
    if (name.rfind("fwd.", 0) == 0) has_fwd = true;
    if (name.rfind("bwd.", 0) == 0) has_bwd = true;
  }
  EXPECT_TRUE(has_fwd);
  EXPECT_TRUE(has_bwd);
  // Head consumes 2H features.
  nn::LstmNetOptions uni;
  uni.input_features = 2;
  uni.hidden = 4;
  nn::LstmNet uni_net(uni);
  EXPECT_GT(net.parameter_count(), uni_net.parameter_count());
}

TEST(BiLstm, LearnsToyTask) {
  nn::BiLstmNetOptions opt;
  opt.input_features = 1;
  opt.hidden = 8;
  opt.dropout = 0.0f;
  opt.seed = 13;
  nn::BiLstmNet net(opt);
  Rng rng(14);
  const Tensor x = Tensor::randn({32, 1, 6}, rng);
  Tensor y({32, 1});
  for (std::size_t i = 0; i < 32; ++i) y.at(i, 0) = x.at(i, 0, 0);  // first step
  opt::Adam adam(net.parameters(), 0.02f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 40; ++step) {
    adam.zero_grad();
    Variable loss = ag::mse_loss(net.forward(Variable(x)), y);
    loss.backward();
    adam.step();
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
  }
  // The backward direction makes the *first* timestep easy to reach.
  EXPECT_LT(last, first * 0.5f);
}

// --- flags -----------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  // Note: a bare boolean flag must not be directly followed by a positional
  // argument (it would be consumed as the flag's value) — put positionals
  // first or use --flag=true.
  const char* argv[] = {"prog",     "positional", "--name", "value",
                        "--num=42", "--enable"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.get("name", ""), "value");
  EXPECT_EQ(flags.get_int("num", 0), 42);
  EXPECT_TRUE(flags.get_bool("enable"));
  EXPECT_FALSE(flags.get_bool("absent"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, Fallbacks) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get("x", "def"), "def");
  EXPECT_EQ(flags.get_int("x", -7), -7);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 2.5), 2.5);
}

TEST(Flags, RejectsGarbageNumbers) {
  const char* argv[] = {"prog", "--n", "abc"};
  Flags flags(3, argv);
  EXPECT_THROW(flags.get_int("n", 0), CheckError);
  EXPECT_THROW(flags.get_double("n", 0.0), CheckError);
}

TEST(Flags, UnknownDetection) {
  const char* argv[] = {"prog", "--good", "1", "--typo", "2"};
  Flags flags(5, argv);
  const auto bad = flags.unknown({"good"});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "typo");
}

}  // namespace
}  // namespace rptcn
