#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/linear.h"
#include "opt/early_stopping.h"
#include "opt/optimizer.h"
#include "opt/trainer.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

// Minimise f(x) = (x - 3)^2 with Adam; it should reach x ~= 3.
TEST(Optimizer, AdamConverges) {
  Variable x(Tensor::scalar(0.0f), true);
  opt::Adam adam({x}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    adam.zero_grad();
    Variable diff = ag::add_scalar(x, -3.0f);
    Variable loss = ag::mul(diff, diff);
    loss.backward();
    adam.step();
  }
  EXPECT_NEAR(x.value().item(), 3.0f, 1e-2);
}

TEST(Optimizer, RejectsNonTrainableParams) {
  Variable constant(Tensor::scalar(1.0f), false);
  EXPECT_THROW(opt::Adam({constant}, 0.1f), CheckError);
  EXPECT_THROW(opt::Adam({}, 0.1f), CheckError);
}

TEST(Optimizer, ZeroGradViaOptimizer) {
  Variable x(Tensor::scalar(2.0f), true);
  opt::Adam adam({x}, 0.1f);
  ag::mul(x, x).backward();
  EXPECT_GT(max_abs(x.grad()), 0.0f);
  adam.zero_grad();
  EXPECT_FLOAT_EQ(max_abs(x.grad()), 0.0f);
}

TEST(Optimizer, StepPlannedMatchesStepBitForBit) {
  // Two Adams over identical parameters: one reads node gradients, the
  // other the same gradients laid out in a slab at offsets(). Every update
  // must agree bit for bit, bias correction included.
  Rng rng(5);
  const Tensor a0 = Tensor::randn({2, 3}, rng);
  const Tensor b0 = Tensor::randn({4}, rng);
  Variable a1(a0, true), b1(b0, true);
  Variable a2(a0, true), b2(b0, true);
  opt::Adam eager({a1, b1}, 0.05f);
  opt::Adam planned({a2, b2}, 0.05f);
  ASSERT_EQ(planned.offsets(), (std::vector<std::size_t>{0, 6, 10}));
  ASSERT_EQ(planned.slab_floats(), 10u);

  std::vector<float> slab(planned.slab_floats());
  for (int step = 0; step < 5; ++step) {
    const Tensor ga = Tensor::randn({2, 3}, rng);
    const Tensor gb = Tensor::randn({4}, rng);
    eager.zero_grad();
    a1.node()->accumulate(ga);
    b1.node()->accumulate(gb);
    eager.step();
    std::copy(ga.raw(), ga.raw() + ga.size(), slab.begin());
    std::copy(gb.raw(), gb.raw() + gb.size(), slab.begin() + 6);
    planned.step_planned(slab.data());
    for (std::size_t i = 0; i < a0.size(); ++i)
      ASSERT_EQ(a1.value()[i], a2.value()[i]) << "step " << step;
    for (std::size_t i = 0; i < b0.size(); ++i)
      ASSERT_EQ(b1.value()[i], b2.value()[i]) << "step " << step;
  }
  EXPECT_NE(a2.value()[0], a0[0]) << "the updates never moved the weights";
}

TEST(Optimizer, ClipGradNormScalesDown) {
  Variable x(Tensor::from({2}, {0.0f, 0.0f}), true);
  x.node()->accumulate(Tensor::from({2}, {3.0f, 4.0f}));  // norm 5
  std::vector<Variable> params{x};
  const float pre = opt::clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(norm2(x.grad()), 1.0f, 1e-4);
  EXPECT_NEAR(x.grad()[0] / x.grad()[1], 0.75f, 1e-4);  // direction kept
}

TEST(Optimizer, ClipGradNormNoOpWhenSmall) {
  Variable x(Tensor::from({1}, {0.0f}), true);
  x.node()->accumulate(Tensor::from({1}, {0.5f}));
  std::vector<Variable> params{x};
  opt::clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[0], 0.5f);
}

TEST(EarlyStopping, StopsAfterPatienceExhausted) {
  opt::EarlyStopping es(3);
  EXPECT_TRUE(es.update(1.0));
  EXPECT_TRUE(es.update(0.5));
  EXPECT_FALSE(es.update(0.6));
  EXPECT_FALSE(es.update(0.7));
  EXPECT_FALSE(es.update(0.8));
  EXPECT_FALSE(es.should_stop());  // 3 bad epochs == patience, not yet over
  EXPECT_FALSE(es.update(0.9));
  EXPECT_TRUE(es.should_stop());
  EXPECT_DOUBLE_EQ(es.best_loss(), 0.5);
  EXPECT_EQ(es.best_epoch(), 2u);
}

TEST(EarlyStopping, ImprovementResetsCounter) {
  opt::EarlyStopping es(2);
  es.update(1.0);
  es.update(1.1);
  es.update(1.2);
  EXPECT_FALSE(es.should_stop());
  EXPECT_TRUE(es.update(0.9));  // improvement resets
  es.update(1.0);
  es.update(1.0);
  EXPECT_FALSE(es.should_stop());
  es.update(1.0);
  EXPECT_TRUE(es.should_stop());
}

TEST(Trainer, GatherRowsCopiesSamples) {
  Tensor t = Tensor::from({3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor g = opt::gather_rows(t, {2, 0});
  EXPECT_EQ(g.dim(0), 2u);
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 2.0f);
  EXPECT_THROW(opt::gather_rows(t, {3}), CheckError);
}

// Learnable toy task: predict the last value of the window (identity-ish).
opt::TrainData make_copy_task(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  opt::TrainData d;
  d.inputs = Tensor::randn({n, 1, 8}, rng);
  d.targets = Tensor({n, 1});
  for (std::size_t i = 0; i < n; ++i) d.targets.at(i, 0) = d.inputs.at(i, 0, 7);
  return d;
}

class TrainerLinearProbe : public nn::Module {
 public:
  explicit TrainerLinearProbe(Rng& rng) : fc_(8, 1, rng) {
    register_module("fc", fc_);
  }
  Variable forward(const Variable& x) {
    return fc_.forward(ag::reshape(x, {x.dim(0), 8}));
  }

 private:
  nn::Linear fc_;
};

TEST(Trainer, FitReducesLossAndRecordsHistory) {
  Rng rng(21);
  TrainerLinearProbe model(rng);
  const auto train = make_copy_task(128, 1);
  const auto valid = make_copy_task(32, 2);
  opt::Adam adam(model.parameters(), 0.01f);
  opt::TrainOptions topt;
  topt.max_epochs = 25;
  topt.patience = 25;
  const auto hist = opt::fit(
      model, [&model](const Variable& x) { return model.forward(x); }, train,
      valid, adam, topt);
  ASSERT_FALSE(hist.train_loss.empty());
  EXPECT_EQ(hist.train_loss.size(), hist.valid_loss.size());
  EXPECT_LT(hist.train_loss.back(), hist.train_loss.front() * 0.5);
  EXPECT_LT(hist.best_valid_loss, hist.valid_loss.front());
  EXPECT_GE(hist.best_epoch, 1u);
}

TEST(Trainer, EarlyStoppingTriggersOnNoise) {
  // Pure-noise targets: validation cannot improve for long.
  Rng rng(22);
  TrainerLinearProbe model(rng);
  opt::TrainData train, valid;
  train.inputs = Tensor::randn({64, 1, 8}, rng);
  train.targets = Tensor::randn({64, 1}, rng);
  valid.inputs = Tensor::randn({32, 1, 8}, rng);
  valid.targets = Tensor::randn({32, 1}, rng);
  opt::Adam adam(model.parameters(), 0.05f);
  opt::TrainOptions topt;
  topt.max_epochs = 200;
  topt.patience = 3;
  const auto hist = opt::fit(
      model, [&model](const Variable& x) { return model.forward(x); }, train,
      valid, adam, topt);
  EXPECT_TRUE(hist.stopped_early);
  EXPECT_LT(hist.train_loss.size(), 200u);
}

TEST(Trainer, RestoreBestRollsBackWeights) {
  Rng rng(23);
  TrainerLinearProbe model(rng);
  const auto train = make_copy_task(64, 3);
  const auto valid = make_copy_task(32, 4);
  opt::Adam adam(model.parameters(), 0.02f);
  opt::TrainOptions topt;
  topt.max_epochs = 30;
  topt.patience = 5;
  const auto hist = opt::fit(
      model, [&model](const Variable& x) { return model.forward(x); }, train,
      valid, adam, topt);
  // After restore, evaluating valid must reproduce the best loss.
  model.set_training(false);
  const double vloss = opt::evaluate_mse(
      [&model](const Variable& x) { return model.forward(x); }, valid, 32);
  EXPECT_NEAR(vloss, hist.best_valid_loss, 1e-6);
}

TEST(Trainer, FitRejectsEmptyDataAndZeroBatchSize) {
  Rng rng(26);
  TrainerLinearProbe model(rng);
  const auto data = make_copy_task(16, 8);
  const auto forward = [&model](const Variable& x) { return model.forward(x); };
  opt::Adam adam(model.parameters(), 0.01f);
  const opt::TrainOptions topt;
  EXPECT_THROW(opt::fit(model, forward, opt::TrainData{}, data, adam, topt),
               CheckError);
  EXPECT_THROW(opt::fit(model, forward, data, opt::TrainData{}, adam, topt),
               CheckError);
  opt::TrainOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(opt::fit(model, forward, data, data, adam, zero_batch),
               CheckError);
}

TEST(Trainer, ShuffleOrderFollowsTheSeed) {
  // Every fit visits its training windows in a seed-drawn order: the same
  // seed repeats the loss curve, another seed batches the windows
  // differently and so moves it.
  const auto first_epoch_loss = [](std::uint64_t seed) {
    Rng rng(27);
    TrainerLinearProbe model(rng);
    const auto train = make_copy_task(64, 9);
    const auto valid = make_copy_task(16, 10);
    opt::Adam adam(model.parameters(), 0.05f);
    opt::TrainOptions topt;
    topt.batch_size = 8;
    topt.max_epochs = 1;
    topt.seed = seed;
    return opt::fit(
               model, [&model](const Variable& x) { return model.forward(x); },
               train, valid, adam, topt)
        .train_loss[0];
  };
  EXPECT_EQ(first_epoch_loss(1), first_epoch_loss(1));
  EXPECT_NE(first_epoch_loss(1), first_epoch_loss(2));
}

TEST(Trainer, FitLeavesTheModelInEvalMode) {
  Rng rng(28);
  TrainerLinearProbe model(rng);
  model.set_training(true);
  const auto train = make_copy_task(32, 11);
  const auto valid = make_copy_task(16, 12);
  opt::Adam adam(model.parameters(), 0.01f);
  opt::TrainOptions topt;
  topt.max_epochs = 2;
  opt::fit(model, [&model](const Variable& x) { return model.forward(x); },
           train, valid, adam, topt);
  EXPECT_FALSE(model.training());
}

TEST(Trainer, EvaluateMseMatchesManual) {
  Rng rng(24);
  TrainerLinearProbe model(rng);
  model.set_training(false);
  const auto data = make_copy_task(16, 5);
  const double full = opt::evaluate_mse(
      [&model](const Variable& x) { return model.forward(x); }, data, 4);
  const double one_batch = opt::evaluate_mse(
      [&model](const Variable& x) { return model.forward(x); }, data, 16);
  EXPECT_NEAR(full, one_batch, 1e-5);  // batching must not change the metric
}

TEST(Trainer, DeterministicAcrossRuns) {
  const auto run = [] {
    Rng rng(25);
    TrainerLinearProbe model(rng);
    const auto train = make_copy_task(64, 6);
    const auto valid = make_copy_task(16, 7);
    opt::Adam adam(model.parameters(), 0.01f);
    opt::TrainOptions topt;
    topt.max_epochs = 5;
    topt.seed = 99;
    return opt::fit(
        model, [&model](const Variable& x) { return model.forward(x); }, train,
        valid, adam, topt);
  };
  const auto h1 = run();
  const auto h2 = run();
  ASSERT_EQ(h1.train_loss.size(), h2.train_loss.size());
  for (std::size_t i = 0; i < h1.train_loss.size(); ++i)
    EXPECT_DOUBLE_EQ(h1.train_loss[i], h2.train_loss[i]);
}

}  // namespace
}  // namespace rptcn
