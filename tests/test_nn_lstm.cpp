#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

TEST(Lstm, OutputShape) {
  Rng rng(1);
  nn::Lstm lstm(3, 8, rng);
  Variable x(Tensor::randn({4, 3, 10}, rng));
  EXPECT_EQ(lstm.forward(x).shape(), (std::vector<std::size_t>{4, 8}));
}

TEST(Lstm, ParameterCount) {
  Rng rng(2);
  nn::Lstm lstm(3, 8, rng);
  // Packed gates: w [4H, F+H] + b [4H] == 4 gates x (wx [8,3] + wh [8,8]
  // + b [8]) — the fusion must not change the parameter budget.
  EXPECT_EQ(lstm.parameter_count(), 4u * (24u + 64u + 8u));
}

TEST(Lstm, RejectsNonTemporalInput) {
  Rng rng(3);
  nn::Lstm lstm(3, 4, rng);
  Variable x(Tensor::randn({4, 3}, rng));
  EXPECT_THROW(lstm.forward(x), CheckError);
}

TEST(Lstm, HiddenStateBounded) {
  // h = o * tanh(c) with sigmoid o, so |h| < 1 always.
  Rng rng(4);
  nn::Lstm lstm(2, 6, rng);
  Variable x(Tensor::randn({3, 2, 20}, rng, 0.0f, 5.0f));
  const Variable h = lstm.forward(x);
  for (float v : h.value().data()) EXPECT_LT(std::fabs(v), 1.0f);
}

TEST(Lstm, GradientFlowsToEarlyTimesteps) {
  Rng rng(5);
  nn::Lstm lstm(1, 4, rng);
  Variable x(Tensor::randn({1, 1, 8}, rng), /*requires_grad=*/true);
  Variable loss = ag::mean_all(lstm.forward(x));
  loss.backward();
  // The first timestep must receive a non-zero gradient (no vanishing to
  // exactly zero over 8 steps with forget bias 1).
  EXPECT_GT(std::fabs(x.grad().at(0, 0, 0)), 0.0f);
}

TEST(Lstm, GradCheckTinyNetwork) {
  Rng init_rng(6);
  nn::Lstm lstm(1, 2, init_rng);
  const auto params = lstm.parameters();
  Rng data_rng(7);
  const Tensor x = Tensor::randn({1, 1, 3}, data_rng);
  const auto r = ag::gradcheck(
      [&lstm, &x](const std::vector<Variable>& in) {
        // Perturb the input only; parameter grads are covered by op-level
        // gradchecks (linear/sigmoid/tanh/mul).
        (void)in;
        return lstm.forward(in[0]);
      },
      {x});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(LstmNet, ForwardShapeAndDropoutModes) {
  nn::LstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 8;
  opt.horizon = 4;
  opt.dropout = 0.5f;
  nn::LstmNet net(opt);
  Rng rng(8);
  Variable x(Tensor::randn({3, 2, 12}, rng));
  EXPECT_EQ(net.forward(x).shape(), (std::vector<std::size_t>{3, 4}));
  net.set_training(false);
  NoGradScope no_grad;
  const Tensor y1 = net.forward(Variable(x.value())).value();
  const Tensor y2 = net.forward(Variable(x.value())).value();
  EXPECT_TRUE(allclose(y1, y2, 0.0f, 0.0f));  // eval mode: no dropout noise
}

TEST(CnnLstm, ForwardShape) {
  nn::CnnLstmOptions opt;
  opt.input_features = 3;
  opt.conv_channels = 6;
  opt.hidden = 8;
  opt.horizon = 2;
  nn::CnnLstm net(opt);
  Rng rng(9);
  Variable x(Tensor::randn({4, 3, 16}, rng));
  EXPECT_EQ(net.forward(x).shape(), (std::vector<std::size_t>{4, 2}));
}

TEST(CnnLstm, HasConvAndLstmParameters) {
  nn::CnnLstmOptions opt;
  opt.input_features = 2;
  nn::CnnLstm net(opt);
  const auto named = net.named_parameters();
  bool has_conv = false, has_lstm = false, has_head = false;
  for (const auto& [name, p] : named) {
    if (name.rfind("conv.", 0) == 0) has_conv = true;
    if (name.rfind("lstm.", 0) == 0) has_lstm = true;
    if (name.rfind("head.", 0) == 0) has_head = true;
  }
  EXPECT_TRUE(has_conv);
  EXPECT_TRUE(has_lstm);
  EXPECT_TRUE(has_head);
}

TEST(CnnLstm, TrainingReducesLossOnToyProblem) {
  // Deterministic sanity: a few Adam steps on a fixed batch reduce MSE.
  nn::CnnLstmOptions opt;
  opt.input_features = 1;
  opt.conv_channels = 4;
  opt.hidden = 8;
  opt.dropout = 0.0f;
  opt.seed = 3;
  nn::CnnLstm net(opt);
  Rng rng(10);
  const Tensor x = Tensor::randn({16, 1, 8}, rng);
  Tensor y({16, 1});
  for (std::size_t i = 0; i < 16; ++i) y.at(i, 0) = x.at(i, 0, 7);  // copy task

  // Simple manual SGD loop to keep this test self-contained.
  auto params = net.parameters();
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 30; ++step) {
    net.zero_grad();
    Variable loss = ag::mse_loss(net.forward(Variable(x)), y);
    loss.backward();
    if (step == 0) first_loss = loss.value().item();
    last_loss = loss.value().item();
    for (auto& p : params) {
      auto v = p.mutable_value().data();
      const auto g = p.grad().data();
      for (std::size_t i = 0; i < v.size(); ++i) v[i] -= 0.05f * g[i];
    }
  }
  EXPECT_LT(last_loss, first_loss * 0.8f);
}

}  // namespace
}  // namespace rptcn
