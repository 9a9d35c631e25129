#include "serve/session.h"

#include <sstream>

#include "graph/train.h"
#include "models/net_forecaster.h"

namespace rptcn::serve {

namespace {

/// Null-checked deref so the delegating constructor below never dereferences
/// an empty shared_ptr.
models::Forecaster& require_forecaster(
    const std::shared_ptr<models::Forecaster>& forecaster) {
  RPTCN_CHECK(forecaster != nullptr, "InferenceSession: null forecaster");
  return *forecaster;
}

}  // namespace

InferenceSession::InferenceSession(std::shared_ptr<models::Forecaster> forecaster)
    : InferenceSession(require_forecaster(forecaster)) {
  // Only delegating sessions need the keep-alive; a net copy is
  // self-contained and holding the forecaster would double its weights.
  if (delegate_ != nullptr) owner_ = std::move(forecaster);
}

InferenceSession::InferenceSession(models::Forecaster& forecaster)
    : name_(forecaster.name()) {
  if (const auto* neural =
          dynamic_cast<const models::NetForecaster*>(&forecaster)) {
    RPTCN_CHECK(neural->net() != nullptr,
                "InferenceSession: forecaster \"" << name_
                                                   << "\" must be fitted first");
    adopt(*neural->net());
  } else {
    // No tensor weights (ARIMA, XGBoost): serve through the forecaster's own
    // batch-invariant predict(), serialised by eager_mutex_.
    delegate_ = &forecaster;
  }
}

InferenceSession::InferenceSession(const nn::ForecastNet& net) { adopt(net); }

InferenceSession::~InferenceSession() = default;

void InferenceSession::adopt(const nn::ForecastNet& net) {
  horizon_ = net.horizon();
  input_features_ = net.input_features();
  net_ = net.rebuild();
  const std::vector<Variable> src = net.parameters();
  std::vector<Variable> dst = net_->parameters();
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i].mutable_value() = src[i].value();
  net_->set_training(false);
  plans_ = std::make_unique<graph::PlanCache>([this](const Tensor& probe) {
    std::lock_guard<std::mutex> lock(eager_mutex_);
    return graph::compile_forward(
        [this](const Variable& x) { return net_->forward(x); }, probe);
  });
}

std::string InferenceSession::expected_shape() const {
  std::ostringstream os;
  os << "[N, ";
  if (input_features_ != 0)
    os << input_features_;
  else
    os << "F";
  os << ", T]";
  if (plans_ != nullptr) {
    const auto shapes = plans_->shapes();
    if (!shapes.empty()) {
      os << " (captured plans:";
      for (const auto& s : shapes)
        os << " [" << s[0] << ", " << s[1] << ", " << s[2] << "]";
      os << ")";
    }
  }
  return os.str();
}

Tensor InferenceSession::run(const Tensor& inputs) const {
  RPTCN_CHECK(inputs.rank() == 3, "InferenceSession::run: model \""
                                      << name_ << "\" expects "
                                      << expected_shape() << ", got "
                                      << inputs.shape_string());
  if (delegate_ != nullptr) {
    std::lock_guard<std::mutex> lock(eager_mutex_);
    return delegate_->predict(inputs);
  }
  RPTCN_CHECK(inputs.dim(1) == input_features_,
              "InferenceSession: model \""
                  << name_ << "\" expects " << expected_shape() << ", got "
                  << inputs.shape_string());
  if (graph::planning_enabled())
    if (const auto plan = plans_->get(inputs)) return plan->run(inputs);
  std::lock_guard<std::mutex> lock(eager_mutex_);
  NoGradScope no_grad;
  return net_->forward(Variable(inputs)).value();
}

}  // namespace rptcn::serve
