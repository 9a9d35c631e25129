// Randomised composite-graph gradchecks: op-level backward tests verify
// each op in isolation; these verify that arbitrary *compositions* (shared
// subexpressions, mixed temporal/dense ops, deep stacks) accumulate
// gradients correctly through the tape.
#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

using ag::gradcheck;

TEST(CompositeGrad, SharedSubexpressionAcrossBranches) {
  // h = tanh(x W1^T); out = h ⊙ sigmoid(h W2^T W3 ...) — h feeds two paths.
  Rng rng(1);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable h = ag::tanh_v(ag::linear(in[0], in[1], Variable{}));
        Variable gate = ag::sigmoid(ag::linear(h, in[2], Variable{}));
        return ag::mul(h, gate);
      },
      {Tensor::randn({3, 4}, rng), Tensor::randn({5, 4}, rng),
       Tensor::randn({5, 5}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(CompositeGrad, ResidualBlockStyle) {
  // out = tanh(x + conv(tanh(conv(x)))) — the TemporalBlock datapath with
  // smooth activations (ReLU kinks would break finite differences).
  Rng rng(2);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable h = ag::tanh_v(ag::conv1d(in[0], in[1], Variable{}, 1));
        h = ag::conv1d(h, in[2], Variable{}, 2);
        return ag::tanh_v(ag::add(in[0], h));
      },
      {Tensor::randn({2, 3, 6}, rng), Tensor::randn({3, 3, 2}, rng),
       Tensor::randn({3, 3, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(CompositeGrad, WeightNormInsideConv) {
  Rng rng(3);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable w = ag::weight_norm(in[1], in[2]);
        return ag::conv1d(in[0], w, Variable{}, 1);
      },
      {Tensor::randn({1, 2, 5}, rng), Tensor::randn({2, 2, 3}, rng),
       Tensor::randn({2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(CompositeGrad, AttentionOverRecurrentFeatures) {
  // A miniature of the full RPTCN forward: conv features -> softmax
  // attention -> glimpse + last-step residual -> linear head.
  Rng rng(4);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable h = ag::tanh_v(ag::conv1d(in[0], in[1], Variable{}, 1));
        Variable logits = ag::conv1d(h, in[2], Variable{}, 1);
        Variable a = ag::softmax_lastdim_v(logits);
        Variable glimpse = ag::sum_lastdim(ag::mul_bcast_channel(a, h));
        Variable summary =
            ag::add(glimpse, ag::time_slice(h, h.dim(2) - 1));
        return ag::linear(summary, in[3], Variable{});
      },
      {Tensor::randn({2, 2, 4}, rng), Tensor::randn({3, 2, 2}, rng),
       Tensor::randn({1, 3, 1}, rng), Tensor::randn({2, 3}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(CompositeGrad, BidirectionalConcat) {
  Rng rng(5);
  const auto r = gradcheck(
      [](const std::vector<Variable>& in) {
        Variable fwd = ag::time_slice(in[0], in[0].dim(2) - 1);
        Variable bwd = ag::time_slice(ag::time_reverse(in[0]),
                                      in[0].dim(2) - 1);
        return ag::linear(ag::concat_cols(fwd, bwd), in[1], Variable{});
      },
      {Tensor::randn({2, 3, 5}, rng), Tensor::randn({2, 6}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

// Randomised dense stacks: depth-parameterised chains of mixed smooth ops
// with a shared input reused at every layer.
class RandomStack : public ::testing::TestWithParam<int> {};

TEST_P(RandomStack, DeepReuseChainsCheckOut) {
  const int depth = GetParam();
  Rng rng(100 + depth);
  std::vector<Tensor> inputs = {Tensor::randn({2, 3}, rng)};
  for (int d = 0; d < depth; ++d)
    inputs.push_back(Tensor::randn({3, 3}, rng));

  const auto r = gradcheck(
      [depth](const std::vector<Variable>& in) {
        Variable h = in[0];
        for (int d = 0; d < depth; ++d) {
          Variable pre = ag::linear(h, in[1 + d], Variable{});
          // Alternate activations and re-inject the original input.
          h = d % 2 == 0 ? ag::tanh_v(pre) : ag::sigmoid(pre);
          h = ag::add(h, ag::mul_scalar(in[0], 0.1f));
        }
        return h;
      },
      inputs, /*eps=*/1e-2f, /*atol=*/5e-2f, /*rtol=*/5e-2f);
  EXPECT_TRUE(r.ok) << r.message;
}

INSTANTIATE_TEST_SUITE_P(Depths, RandomStack, ::testing::Values(1, 2, 4, 6));

TEST(CompositeGrad, LossOfLossComposition) {
  // MSE of a prediction that itself involves a softmax re-weighting.
  Rng rng(6);
  const Tensor target = Tensor::randn({2, 2}, rng);
  const auto r = gradcheck(
      [target](const std::vector<Variable>& in) {
        Variable w = ag::softmax_lastdim_v(in[0]);
        Variable pred = ag::matmul(w, in[1]);
        return ag::mse_loss(pred, target);
      },
      {Tensor::randn({2, 3}, rng), Tensor::randn({3, 2}, rng)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(CompositeGrad, GradientsAreDeterministic) {
  // Same graph, same seed -> bit-identical gradients across repetitions.
  const auto run = [] {
    Rng rng(7);
    Variable x(Tensor::randn({2, 2, 6}, rng), true);
    Variable w(Tensor::randn({2, 2, 3}, rng), true);
    Variable loss = ag::mean_all(
        ag::mul(ag::conv1d(x, w, Variable{}, 2), ag::conv1d(x, w, Variable{}, 2)));
    loss.backward();
    return std::make_pair(x.grad(), w.grad());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_TRUE(allclose(a.first, b.first, 0.0f, 0.0f));
  EXPECT_TRUE(allclose(a.second, b.second, 0.0f, 0.0f));
}

}  // namespace
}  // namespace rptcn
