// The paper's optimizer over autograd parameters (Adam), plus gradient
// clipping.
//
// Adam holds the parameter Variables (shared graph leaves) plus its own
// per-parameter moment state, and updates values in place from the
// accumulated gradients.
#pragma once

#include <vector>

#include "autograd/variable.h"

namespace rptcn::opt {

/// Adam (Kingma & Ba) with bias correction — the paper's training optimizer
/// and the only one opt::fit and the planned training step drive.
///
/// Moment state lives in two contiguous slabs laid out in parameter order
/// (offsets()), so the planned training step can fuse the whole update into
/// strided sweeps over one gradient slab; step() walks the same slabs
/// per-parameter with identical element order, keeping the two paths
/// bit-identical.
class Adam {
 public:
  Adam(std::vector<Variable> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Apply one update from the current gradients.
  void step();

  /// One update reading gradients from a contiguous slab in parameter order
  /// (params()[i]'s gradient spans [offsets()[i], offsets()[i] + size)).
  /// Bit-identical to step() given bit-identical gradients.
  void step_planned(const float* grad_slab);

  /// Clear gradients of all managed parameters.
  void zero_grad();

  std::size_t parameter_count() const;
  const std::vector<Variable>& params() const { return params_; }

  /// Slab offset of each parameter, parameter order; back() is total floats.
  const std::vector<std::size_t>& offsets() const { return offsets_; }
  std::size_t slab_floats() const { return offsets_.back(); }

 private:
  void update_param(std::size_t i, const float* g, float bc1, float bc2);

  std::vector<Variable> params_;
  float lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<float> m_;              // first-moment slab
  std::vector<float> v_;              // second-moment slab
  std::vector<std::size_t> offsets_;  // params_.size() + 1 entries
};

/// Scale gradients so their global L2 norm is at most max_norm.
/// Returns the pre-clip norm.
float clip_grad_norm(std::vector<Variable>& params, float max_norm);

/// Slab-layout twin of clip_grad_norm: same per-parameter norm reduction
/// (in parameter order, double accumulation) and the same scale, applied to
/// a gradient slab with params[i] at offsets[i]. Bit-identical to running
/// clip_grad_norm on node gradients holding the same bits.
float clip_grad_slab(float* slab, const std::vector<Variable>& params,
                     const std::vector<std::size_t>& offsets, float max_norm);

}  // namespace rptcn::opt
