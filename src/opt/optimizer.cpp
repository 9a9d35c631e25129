#include "opt/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace rptcn::opt {

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  RPTCN_CHECK(!params_.empty(), "optimizer needs at least one parameter");
  for (const auto& p : params_)
    RPTCN_CHECK(p.defined() && p.requires_grad(),
                "optimizer parameters must be trainable leaves");
  offsets_.reserve(params_.size() + 1);
  std::size_t off = 0;
  for (const auto& p : params_) {
    offsets_.push_back(off);
    off += p.size();
  }
  offsets_.push_back(off);
  m_.assign(off, 0.0f);
  v_.assign(off, 0.0f);
}

void Adam::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void Adam::update_param(std::size_t i, const float* g, float bc1, float bc2) {
  auto value = params_[i].mutable_value().data();
  float* m = m_.data() + offsets_[i];
  float* v = v_.data() + offsets_[i];
  for (std::size_t j = 0; j < value.size(); ++j) {
    m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
    v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i)
    update_param(i, params_[i].grad().raw(), bc1, bc2);
}

void Adam::step_planned(const float* grad_slab) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i)
    update_param(i, grad_slab + offsets_[i], bc1, bc2);
}

float clip_grad_norm(std::vector<Variable>& params, float max_norm) {
  RPTCN_CHECK(max_norm > 0.0f, "clip_grad_norm needs positive max_norm");
  double total = 0.0;
  for (const auto& p : params) {
    const float n = norm2(p.grad());
    total += static_cast<double>(n) * n;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    for (auto& p : params) {
      // grad() returns const; scale through the node's tensor directly.
      Tensor g = p.grad();
      scale_inplace(g, scale);
      p.zero_grad();
      p.node()->accumulate(g);
    }
  }
  return norm;
}

float clip_grad_slab(float* slab, const std::vector<Variable>& params,
                     const std::vector<std::size_t>& offsets, float max_norm) {
  RPTCN_CHECK(max_norm > 0.0f, "clip_grad_slab needs positive max_norm");
  double total = 0.0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const float n = norm2_raw(slab + offsets[i], params[i].size());
    total += static_cast<double>(n) * n;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    float* p = slab;
    float* end = slab + offsets[params.size()];
    for (; p != end; ++p) *p *= scale;
  }
  return norm;
}

}  // namespace rptcn::opt
