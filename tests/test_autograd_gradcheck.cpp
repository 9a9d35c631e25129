// Finite-difference verification of every differentiable op's backward,
// including the paper-critical dilated causal convolution and weight norm.
#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "nn/rptcn_net.h"

namespace rptcn {
namespace {

using ag::gradcheck;

Tensor away_from_zero(std::vector<std::size_t> shape, Rng& rng,
                      float margin = 0.2f) {
  Tensor t = Tensor::randn(shape, rng);
  for (auto& v : t.data())
    if (std::fabs(v) < margin) v = v < 0 ? v - margin : v + margin;
  return t;
}

TEST(GradCheck, Add) {
  Rng rng(1);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) { return ag::add(in[0], in[1]); },
      {Tensor::randn({3, 4}, rng), Tensor::randn({3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, Sub) {
  Rng rng(2);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) { return ag::sub(in[0], in[1]); },
      {Tensor::randn({5}, rng), Tensor::randn({5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, Mul) {
  Rng rng(3);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) { return ag::mul(in[0], in[1]); },
      {Tensor::randn({2, 3}, rng), Tensor::randn({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, ScalarOps) {
  Rng rng(4);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::add_scalar(ag::mul_scalar(in[0], -2.5f), 0.7f);
      },
      {Tensor::randn({4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, Matmul) {
  Rng rng(5);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) { return ag::matmul(in[0], in[1]); },
      {Tensor::randn({3, 4}, rng), Tensor::randn({4, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, LinearWithBias) {
  Rng rng(6);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::linear(in[0], in[1], in[2]);
      },
      {Tensor::randn({4, 3}, rng), Tensor::randn({2, 3}, rng),
       Tensor::randn({2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, LinearWithoutBias) {
  Rng rng(7);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::linear(in[0], in[1], Variable{});
      },
      {Tensor::randn({2, 5}, rng), Tensor::randn({3, 5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(8);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) { return ag::relu(in[0]); },
      {away_from_zero({4, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, Sigmoid) {
  Rng rng(9);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) { return ag::sigmoid(in[0]); },
      {Tensor::randn({6}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, Tanh) {
  Rng rng(10);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) { return ag::tanh_v(in[0]); },
      {Tensor::randn({6}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, Reshape) {
  Rng rng(11);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::mul(ag::reshape(in[0], {6}), ag::reshape(in[0], {6}));
      },
      {Tensor::randn({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, SoftmaxLastdim) {
  Rng rng(12);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        // Weighted sum to make the output depend non-trivially on softmax.
        Variable s = ag::softmax_lastdim_v(in[0]);
        return ag::mul(s, in[1]);
      },
      {Tensor::randn({2, 5}, rng), Tensor::randn({2, 5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MulBcastChannel) {
  Rng rng(13);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::mul_bcast_channel(in[0], in[1]);
      },
      {Tensor::randn({2, 1, 4}, rng), Tensor::randn({2, 3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, SumLastdim) {
  Rng rng(14);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable s = ag::sum_lastdim(in[0]);
        return ag::mul(s, s);
      },
      {Tensor::randn({2, 3, 4}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, TimeSlice) {
  Rng rng(15);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable s = ag::time_slice(in[0], 2);
        return ag::mul(s, s);
      },
      {Tensor::randn({2, 3, 5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MeanAll) {
  Rng rng(16);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::mean_all(ag::mul(in[0], in[0]));
      },
      {Tensor::randn({3, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MseLoss) {
  Rng rng(17);
  const Tensor target = Tensor::randn({4, 2}, rng);
  const auto r = gradcheck(
      [target](const std::vector<Variable>& in) {
        return ag::mse_loss(in[0], target);
      },
      {Tensor::randn({4, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, MaeLossAwayFromTies) {
  Rng rng(18);
  const Tensor target = Tensor::zeros({4});
  const auto r = gradcheck(
      [target](const std::vector<Variable>& in) {
        return ag::mae_loss(in[0], target);
      },
      {away_from_zero({4}, rng, 0.5f)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, WeightNorm) {
  Rng rng(19);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable w = ag::weight_norm(in[0], in[1]);
        return ag::mul(w, w);
      },
      {Tensor::randn({3, 2, 2}, rng), Tensor::randn({3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

// Dilated causal conv sweep over (Cin, Cout, K, dilation, T).
struct ConvCase {
  std::size_t cin, cout, k, dilation, t;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradCheck, CausalConvMatchesFiniteDifferences) {
  const auto c = GetParam();
  Rng rng(c.cin * 100 + c.cout * 10 + c.k + c.dilation + c.t);
  const std::size_t dilation = c.dilation;
  const auto r = gradcheck(
      [dilation](const std::vector<Variable>& in) {
        return ag::conv1d(in[0], in[1], in[2], dilation);
      },
      {Tensor::randn({2, c.cin, c.t}, rng),
       Tensor::randn({c.cout, c.cin, c.k}, rng), Tensor::randn({c.cout}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvGradCheck,
    ::testing::Values(ConvCase{1, 1, 1, 1, 4}, ConvCase{1, 2, 3, 1, 6},
                      ConvCase{3, 2, 3, 2, 8}, ConvCase{2, 2, 2, 4, 10},
                      ConvCase{2, 3, 3, 1, 5}, ConvCase{4, 1, 3, 2, 7}));

TEST(GradCheck, ConvWithoutBias) {
  Rng rng(20);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::conv1d(in[0], in[1], Variable{}, 2);
      },
      {Tensor::randn({1, 2, 6}, rng), Tensor::randn({2, 2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, ConvValidPadding) {
  Rng rng(21);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        return ag::conv1d(in[0], in[1], Variable{}, 1, /*left_pad=*/0);
      },
      {Tensor::randn({1, 2, 8}, rng), Tensor::randn({1, 2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, AttentionBlockEndToEnd) {
  // The attention module's exact datapath (eqs. 7-8 plus the last-step
  // residual used by RptcnNet): scorer conv -> softmax over time ->
  // glimpse -> residual add -> head.
  Rng rng(23);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        const Variable& z = in[0];
        Variable logits = ag::conv1d(z, in[1], in[2], 1);  // [N,1,T]
        Variable a = ag::softmax_lastdim_v(logits);
        Variable glimpse = ag::sum_lastdim(ag::mul_bcast_channel(a, z));
        Variable summary =
            ag::add(glimpse, ag::time_slice(z, z.value().dim(2) - 1));
        return ag::linear(summary, in[3], in[4]);
      },
      {Tensor::randn({2, 3, 5}, rng), Tensor::randn({1, 3, 1}, rng),
       Tensor::randn({1}, rng), Tensor::randn({2, 3}, rng),
       Tensor::randn({2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, WeightNormConvPath) {
  // Weight-normalised causal conv exactly as Conv1d composes it:
  // w = g * v/||v||, then the dilated causal convolution with bias.
  Rng rng(24);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable w = ag::weight_norm(in[1], in[2]);
        return ag::conv1d(in[0], w, in[3], /*dilation=*/2);
      },
      {Tensor::randn({1, 2, 7}, rng), Tensor::randn({3, 2, 3}, rng),
       Tensor::randn({3}, rng), Tensor::randn({3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, CompositePipelineRptcnStyle) {
  // Conv -> relu-free (to avoid kinks) tanh -> attention-style softmax
  // weighting -> reduction: the RPTCN datapath in miniature.
  Rng rng(22);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable h = ag::conv1d(in[0], in[1], Variable{}, 1);  // [1,2,T]
        h = ag::tanh_v(h);
        Variable logits = ag::conv1d(h, in[2], Variable{}, 1);  // [1,1,T]
        Variable a = ag::softmax_lastdim_v(logits);
        return ag::sum_lastdim(ag::mul_bcast_channel(a, h));
      },
      {Tensor::randn({1, 2, 5}, rng), Tensor::randn({2, 2, 2}, rng),
       Tensor::randn({1, 2, 1}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GradCheck, SmallRptcnNetEndToEnd) {
  // End-to-end gradient check of the full RPTCN eval datapath — one
  // weight-normalised residual TCN block (with 1x1 shortcut), the
  // per-timestep FC conv, temporal attention and the forecast head.
  //
  // gradcheck differentiates with respect to explicit input Variables, so
  // the net is mirrored op-for-op from a real RptcnNet's parameters; the
  // bit-equality assertion below proves the mirror IS the net's forward,
  // making the gradient check cover the real composition.
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.horizon = 1;
  opt.tcn.channels = {3};
  opt.tcn.kernel_size = 3;
  opt.fc_dim = 2;
  opt.seed = 31;
  nn::RptcnNet net(opt);
  net.set_training(false);

  const auto& block = *net.tcn().blocks().front();
  ASSERT_NE(block.shortcut(), nullptr);  // 2 -> 3 channels
  ASSERT_NE(net.fc(), nullptr);
  ASSERT_NE(net.attention(), nullptr);

  // Seed chosen so no relu preactivation lands inside the central-difference
  // eps window around 0 (a kink there makes analytic vs numeric disagree by
  // construction, not by bug).
  Rng rng(28);
  const std::vector<Tensor> inputs = {
      Tensor::randn({1, 2, 6}, rng),           // x
      block.conv1().weight_v().value(),        // v1 [3,2,3]
      block.conv1().gain().value(),            // g1 [3]
      block.conv1().bias().value(),            // b1 [3]
      block.conv2().weight_v().value(),        // v2 [3,3,3]
      block.conv2().gain().value(),            // g2 [3]
      block.conv2().bias().value(),            // b2 [3]
      block.shortcut()->weight_v().value(),    // ws [3,2,1]
      block.shortcut()->bias().value(),        // bs [3]
      net.fc()->weight_v().value(),            // wfc [2,3,1]
      net.fc()->bias().value(),                // bfc [2]
      net.attention()->scorer().weight_v().value(),  // wsc [1,2,1]
      net.attention()->scorer().bias().value(),      // bsc [1]
      net.head().weight().value(),             // wh [1,2]
      net.head().bias().value(),               // bh [1]
  };

  const auto mirror = [](const std::vector<Variable>& in) {
    const Variable& x = in[0];
    Variable h = ag::relu(
        ag::conv1d(x, ag::weight_norm(in[1], in[2]), in[3], /*dilation=*/1));
    h = ag::relu(
        ag::conv1d(h, ag::weight_norm(in[4], in[5]), in[6], /*dilation=*/1));
    const Variable res = ag::conv1d(x, in[7], in[8], 1);  // 1x1 shortcut
    h = ag::relu(ag::add(res, h));                        // eq. (5)
    h = ag::relu(ag::conv1d(h, in[9], in[10], 1));        // FC (eq. 6)
    Variable logits = ag::conv1d(h, in[11], in[12], 1);
    Variable a = ag::softmax_lastdim_v(logits);           // eq. (7)
    Variable glimpse = ag::sum_lastdim(ag::mul_bcast_channel(a, h));
    Variable summary =
        ag::add(glimpse, ag::time_slice(h, h.value().dim(2) - 1));
    return ag::linear(summary, in[13], in[14]);
  };

  // The mirror must be bit-identical to the real net forward — otherwise
  // the gradient check would be validating a different datapath.
  {
    NoGradScope no_grad;
    std::vector<Variable> vars;
    vars.reserve(inputs.size());
    for (const Tensor& t : inputs) vars.emplace_back(t);
    const Tensor mirrored = mirror(vars).value();
    const Tensor real = net.forward(Variable(inputs[0])).value();
    ASSERT_EQ(mirrored.shape(), real.shape());
    for (std::size_t i = 0; i < real.size(); ++i)
      ASSERT_EQ(mirrored.data()[i], real.data()[i]) << "mirror diverged at " << i;
  }

  const auto r = gradcheck(mirror, inputs);
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace rptcn
