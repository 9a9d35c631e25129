// Dilated causal 1-D convolution layer, with optional weight normalisation
// (the paper's residual blocks always weight-normalise; the 1x1 shortcut and
// the per-timestep FC layer do not).
#pragma once

#include "nn/module.h"

namespace rptcn {
class Rng;
}

namespace rptcn::nn {

struct Conv1dOptions {
  std::size_t kernel_size = 3;
  std::size_t dilation = 1;
  bool causal = true;        ///< left-pad (K-1)*dilation so T is preserved
  bool bias = true;
  bool weight_norm = false;  ///< reparameterise w = g * v/||v|| per channel
};

class Conv1d : public Module {
 public:
  Conv1d(std::size_t in_channels, std::size_t out_channels,
         const Conv1dOptions& options, Rng& rng);

  /// x: [N, Cin, T] -> [N, Cout, T] (causal) or shorter (valid).
  Variable forward(const Variable& x) const;

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }
  const Conv1dOptions& options() const { return options_; }

  // Read-only parameter access, for inspection.
  const Variable& weight_v() const { return weight_v_; }
  const Variable& gain() const { return gain_; }  ///< undefined unless weight_norm
  const Variable& bias() const { return bias_; }  ///< undefined unless bias

 private:
  std::size_t in_channels_;
  std::size_t out_channels_;
  Conv1dOptions options_;
  Variable weight_v_;  ///< direction (or the plain weight if !weight_norm)
  Variable gain_;      ///< per-channel magnitude g (weight_norm only)
  Variable bias_;
};

}  // namespace rptcn::nn
