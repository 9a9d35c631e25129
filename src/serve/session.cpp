#include "serve/session.h"

#include <sstream>

#include "autograd/ops.h"
#include "graph/train.h"
#include "models/nn_forecasters.h"

namespace rptcn::serve {

namespace {

/// Fitted-net guard shared by the forecaster constructor branches.
template <typename Net>
const Net& require_net(const Net* net, const std::string& name) {
  RPTCN_CHECK(net != nullptr,
              "InferenceSession: forecaster \"" << name
                                                << "\" must be fitted first");
  return *net;
}

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
  if (const auto* rptcn = dynamic_cast<const models::RptcnForecaster*>(&forecaster)) {
    adopt(require_net(rptcn->net(), name_));
  } else if (const auto* tcn = dynamic_cast<const models::TcnForecaster*>(&forecaster)) {
    adopt(require_net(tcn->net(), name_));
  } else if (const auto* lstm = dynamic_cast<const models::LstmForecaster*>(&forecaster)) {
    adopt(require_net(lstm->net(), name_));
  } else if (const auto* bilstm = dynamic_cast<const models::BiLstmForecaster*>(&forecaster)) {
    adopt(require_net(bilstm->net(), name_));
  } else if (const auto* cnnlstm = dynamic_cast<const models::CnnLstmForecaster*>(&forecaster)) {
    adopt(require_net(cnnlstm->net(), name_));
  } else {
    // No tensor weights (ARIMA, XGBoost): serve through the forecaster's own
    // batch-invariant predict(), serialised by eager_mutex_.
    delegate_ = &forecaster;
  }
}

InferenceSession::InferenceSession(const nn::RptcnNet& net) : name_("RPTCN") {
  adopt(net);
}

InferenceSession::InferenceSession(const nn::LstmNet& net) : name_("LSTM") {
  adopt(net);
}

InferenceSession::InferenceSession(const nn::BiLstmNet& net)
    : name_("BiLSTM") {
  adopt(net);
}

InferenceSession::InferenceSession(const nn::CnnLstm& net)
    : name_("CNN-LSTM") {
  adopt(net);
}

InferenceSession::~InferenceSession() = default;

template <typename Net>
void InferenceSession::adopt(const Net& net) {
  horizon_ = net.options().horizon;
  input_features_ = net.options().input_features;
  auto copy = std::make_unique<Net>(net.options());
  const std::vector<Variable> src = net.parameters();
  std::vector<Variable> dst = copy->parameters();
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i].mutable_value() = src[i].value();
  copy->set_training(false);
  forward_ = [m = copy.get()](const Variable& x) { return m->forward(x); };
  net_ = std::move(copy);
  plans_ = std::make_unique<graph::PlanCache>([this](const Tensor& probe) {
    std::lock_guard<std::mutex> lock(eager_mutex_);
    ag::SingleWindowConvDispatch single_window;
    return graph::compile_forward(forward_, probe);
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
  ag::SingleWindowConvDispatch single_window;
  NoGradScope no_grad;
  return forward_(Variable(inputs)).value();
}

}  // namespace rptcn::serve
