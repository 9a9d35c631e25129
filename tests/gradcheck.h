// Finite-difference gradient verification for autograd ops.
//
// The test suite's reference: every backward implementation is checked
// against a central-difference numerical Jacobian-vector product.
#pragma once

#include <functional>
#include <vector>

#include "autograd/variable.h"

namespace rptcn::ag {

struct GradCheckResult {
  bool ok = true;
  float max_abs_error = 0.0f;   ///< worst |analytic - numeric| over all inputs
  std::string message;          ///< describes the first failure, if any
};

/// Check d(sum of f(inputs)) / d(inputs) against central differences.
///
/// `f` must be a pure function of its inputs (re-invoked many times).
/// Inputs are perturbed elementwise by eps; analytic grads come from one
/// backward() pass. Tolerance is abs+rel like allclose.
GradCheckResult gradcheck(
    const std::function<Variable(const std::vector<Variable>&)>& f,
    const std::vector<Tensor>& input_values, float eps = 1e-3f,
    float atol = 2e-2f, float rtol = 2e-2f);

}  // namespace rptcn::ag
