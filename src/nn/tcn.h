// Temporal convolutional network (Bai et al. 2018), as used by the paper.
//
// TemporalBlock is the residual unit of Fig. 6: two weight-normalised
// dilated causal convolutions, each followed by ReLU and spatial dropout,
// plus a 1x1-convolution shortcut when channel counts differ; the block
// output is Activation(x + F(x)) (eq. 5). TCN stacks blocks with
// exponentially growing dilation (1, 2, 4, ...), giving receptive field
// 1 + sum_i 2*(K-1)*d_i.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/conv1d.h"
#include "nn/module.h"

namespace rptcn::nn {

class TemporalBlock : public Module {
 public:
  TemporalBlock(std::size_t in_channels, std::size_t out_channels,
                std::size_t kernel_size, std::size_t dilation, float dropout,
                Rng& rng);

  /// x: [N, Cin, T] -> [N, Cout, T].
  Variable forward(const Variable& x, Rng& rng) const;

  // Read-only layer access, for parameter inspection.
  const Conv1d& conv1() const { return conv1_; }
  const Conv1d& conv2() const { return conv2_; }
  const Conv1d* shortcut() const { return shortcut_.get(); }

 private:
  Conv1d conv1_;
  Conv1d conv2_;
  std::unique_ptr<Conv1d> shortcut_;  ///< 1x1 conv when Cin != Cout
  float dropout_;
};

struct TcnOptions {
  std::vector<std::size_t> channels = {16, 16, 16};  ///< one entry per block
  std::size_t kernel_size = 3;
  float dropout = 0.1f;
};

class Tcn : public Module {
 public:
  Tcn(std::size_t input_channels, const TcnOptions& options, Rng& rng);

  /// x: [N, F, T] -> [N, channels.back(), T].
  Variable forward(const Variable& x, Rng& rng) const;

  std::size_t output_channels() const;
  /// Timesteps of history that influence the last output step.
  std::size_t receptive_field() const;
  const TcnOptions& options() const { return options_; }
  const std::vector<std::unique_ptr<TemporalBlock>>& blocks() const {
    return blocks_;
  }

 private:
  TcnOptions options_;
  std::vector<std::unique_ptr<TemporalBlock>> blocks_;
};

}  // namespace rptcn::nn
