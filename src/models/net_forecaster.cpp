#include "models/net_forecaster.h"

#include <algorithm>
#include <fstream>
#include <string_view>

#include "autograd/ops.h"
#include "common/check.h"
#include "graph/train.h"

namespace rptcn::models {

namespace {

/// Module::save/load signal failure via CheckError; translate the two
/// distinguishable causes into the enum instead of leaking exceptions.
CheckpointStatus save_net(const nn::Module& net, const std::string& path) {
  try {
    net.save(path);
  } catch (const CheckError&) {
    return CheckpointStatus::kIoError;  // "cannot open for writing"
  }
  return CheckpointStatus::kOk;
}

CheckpointStatus load_net(nn::Module& net, const std::string& path) {
  if (!std::ifstream(path).good()) return CheckpointStatus::kIoError;
  try {
    net.load(path);
  } catch (const CheckError& e) {
    // Module::load reports "checkpoint order/shape mismatch ..."; anything
    // else (truncated file, bad magic) is an I/O-level failure.
    return std::string_view(e.what()).find("mismatch") !=
                   std::string_view::npos
               ? CheckpointStatus::kShapeMismatch
               : CheckpointStatus::kIoError;
  }
  return CheckpointStatus::kOk;
}

opt::TrainOptions make_train_options(const NnTrainConfig& cfg) {
  opt::TrainOptions o;
  o.batch_size = cfg.batch_size;
  o.max_epochs = cfg.max_epochs;
  o.patience = cfg.patience;
  o.clip_norm = cfg.clip_norm;
  o.seed = cfg.seed;
  o.loss = cfg.loss;
  o.pinball_tau = cfg.pinball_tau;
  o.observers = cfg.observers;
  // make_planned_step returns null while planning is disabled, and fit()
  // then trains eagerly.
  o.planned_step_factory = graph::make_planned_step;
  return o;
}

}  // namespace

NetForecaster::NetForecaster(std::string name, const NnTrainConfig& train,
                             NetFactory make_net)
    : name_(std::move(name)), train_(train), make_net_(std::move(make_net)) {}

void NetForecaster::build(const ForecastDataset& dataset) {
  net_ = make_net_(dataset.train.inputs.dim(1), dataset.horizon, train_.seed);
}

void NetForecaster::fit(const ForecastDataset& dataset) {
  build(dataset);
  nn::ForecastNet& net = *net_;
  opt::Adam adam(net.parameters(), train_.learning_rate);
  const auto forward = [&net](const Variable& x) { return net.forward(x); };
  const auto history = opt::fit(net, forward, dataset.train, dataset.valid,
                                adam, make_train_options(train_));
  curves_ = {history.train_loss, history.valid_loss};
}

CheckpointStatus NetForecaster::save(const std::string& path) const {
  RPTCN_CHECK(net_ != nullptr, "save before fit");
  return save_net(*net_, path);
}

CheckpointStatus NetForecaster::restore(const ForecastDataset& dataset,
                                        const std::string& path) {
  build(dataset);
  curves_ = {};
  const CheckpointStatus status = load_net(*net_, path);
  // A missing file leaves the fresh init in place and a mismatch leaves the
  // parameters before it loaded: neither may be served.
  if (status != CheckpointStatus::kOk) net_.reset();
  return status;
}

Tensor NetForecaster::predict(const Tensor& inputs) {
  RPTCN_CHECK(net_ != nullptr, "predict before fit");
  RPTCN_CHECK(inputs.rank() == 3, "predict expects [S,F,T]");
  NoGradScope no_grad;
  net_->set_training(false);
  const std::size_t s = inputs.dim(0);
  const std::size_t horizon = net_->horizon();
  Tensor out({s, horizon});
  for (std::size_t start = 0; start < s; start += train_.batch_size) {
    const std::size_t end = std::min(start + train_.batch_size, s);
    std::vector<std::size_t> idx(end - start);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = start + i;
    const Variable x(opt::gather_rows(inputs, idx));
    const Tensor pred = net_->forward(x).value();
    for (std::size_t i = 0; i < idx.size(); ++i)
      for (std::size_t h = 0; h < horizon; ++h)
        out.at(start + i, h) = pred.at(i, h);
  }
  return out;
}

}  // namespace rptcn::models
