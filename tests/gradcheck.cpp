#include "gradcheck.h"

#include <cmath>
#include <sstream>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace rptcn::ag {

GradCheckResult gradcheck(
    const std::function<Variable(const std::vector<Variable>&)>& f,
    const std::vector<Tensor>& input_values, float eps, float atol,
    float rtol) {
  GradCheckResult result;

  // Analytic gradients: one forward + backward on sum(f(x)).
  std::vector<Variable> inputs;
  inputs.reserve(input_values.size());
  for (const auto& t : input_values)
    inputs.emplace_back(t, /*requires_grad=*/true);
  Variable out = sum_all(f(inputs));
  out.backward();

  const auto eval_sum = [&](const std::vector<Tensor>& vals) -> double {
    NoGradScope no_grad;
    std::vector<Variable> vars;
    vars.reserve(vals.size());
    for (const auto& t : vals) vars.emplace_back(t, false);
    return static_cast<double>(rptcn::sum(f(vars).value()));
  };

  std::vector<Tensor> work = input_values;
  for (std::size_t vi = 0; vi < work.size(); ++vi) {
    const Tensor& analytic = inputs[vi].grad();
    for (std::size_t i = 0; i < work[vi].size(); ++i) {
      const float orig = work[vi][i];
      work[vi][i] = orig + eps;
      const double up = eval_sum(work);
      work[vi][i] = orig - eps;
      const double down = eval_sum(work);
      work[vi][i] = orig;
      const float numeric = static_cast<float>((up - down) / (2.0 * eps));
      const float got = analytic[i];
      const float err = std::fabs(got - numeric);
      result.max_abs_error = std::max(result.max_abs_error, err);
      if (err > atol + rtol * std::fabs(numeric)) {
        result.ok = false;
        if (result.message.empty()) {
          std::ostringstream oss;
          oss << "input " << vi << " element " << i << ": analytic " << got
              << " vs numeric " << numeric << " (err " << err << ")";
          result.message = oss.str();
        }
      }
    }
  }
  return result;
}

}  // namespace rptcn::ag
