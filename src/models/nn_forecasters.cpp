#include "models/nn_forecasters.h"

#include <fstream>
#include <string_view>

#include "autograd/ops.h"
#include "common/check.h"
#include "graph/plan.h"
#include "graph/train.h"

namespace rptcn::models {

namespace {

/// Shared checkpoint-status mapping for every Module-backed forecaster.
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
  return o;
}

/// Shared fit body: construct optimizer, run the trainer, record curves.
template <typename Net>
TrainCurves fit_net(Net& net, const NnTrainConfig& cfg,
                    const ForecastDataset& dataset) {
  opt::Adam adam(net.parameters(), cfg.learning_rate);
  const auto forward = [&net](const Variable& x) { return net.forward(x); };
  opt::TrainOptions options = make_train_options(cfg);
  if (cfg.planned_step && graph::planning_enabled())
    options.planned_step_factory = graph::make_planned_step;
  const auto history =
      opt::fit(net, forward, dataset.train, dataset.valid, adam, options);
  return {history.train_loss, history.valid_loss};
}

/// Batched inference.
template <typename Net>
Tensor predict_net(Net& net, const Tensor& inputs, std::size_t horizon,
                   std::size_t batch_size) {
  RPTCN_CHECK(inputs.rank() == 3, "predict expects [S,F,T]");
  NoGradScope no_grad;
  net.set_training(false);
  const std::size_t s = inputs.dim(0);
  Tensor out({s, horizon});
  for (std::size_t start = 0; start < s; start += batch_size) {
    const std::size_t end = std::min(start + batch_size, s);
    std::vector<std::size_t> idx(end - start);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = start + i;
    const Variable x(opt::gather_rows(inputs, idx));
    const Tensor pred = net.forward(x).value();
    for (std::size_t i = 0; i < idx.size(); ++i)
      for (std::size_t h = 0; h < horizon; ++h)
        out.at(start + i, h) = pred.at(i, h);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// RPTCN
// ---------------------------------------------------------------------------

RptcnForecaster::RptcnForecaster(const NnTrainConfig& train,
                                 nn::RptcnOptions options)
    : train_(train), options_(std::move(options)) {}

void RptcnForecaster::build(const ForecastDataset& dataset) {
  options_.input_features = dataset.train.inputs.dim(1);
  options_.horizon = dataset.horizon;
  options_.seed = train_.seed;
  net_ = std::make_unique<nn::RptcnNet>(options_);
}

void RptcnForecaster::fit(const ForecastDataset& dataset) {
  build(dataset);
  curves_ = fit_net(*net_, train_, dataset);
}

CheckpointStatus RptcnForecaster::save(const std::string& path) const {
  RPTCN_CHECK(net_ != nullptr, "save before fit");
  return save_net(*net_, path);
}

CheckpointStatus RptcnForecaster::restore(const ForecastDataset& dataset,
                                           const std::string& path) {
  build(dataset);
  curves_ = {};
  return load_net(*net_, path);
}

Tensor RptcnForecaster::predict(const Tensor& inputs) {
  RPTCN_CHECK(net_ != nullptr, "predict before fit");
  return predict_net(*net_, inputs, options_.horizon, train_.batch_size);
}

// ---------------------------------------------------------------------------
// Plain TCN (ablation)
// ---------------------------------------------------------------------------

TcnForecaster::TcnForecaster(const NnTrainConfig& train,
                             nn::RptcnOptions options)
    : train_(train), options_(std::move(options)) {
  options_.use_attention = false;
  options_.use_fc = false;
}

void TcnForecaster::build(const ForecastDataset& dataset) {
  options_.input_features = dataset.train.inputs.dim(1);
  options_.horizon = dataset.horizon;
  options_.seed = train_.seed;
  net_ = std::make_unique<nn::RptcnNet>(options_);
}

void TcnForecaster::fit(const ForecastDataset& dataset) {
  build(dataset);
  curves_ = fit_net(*net_, train_, dataset);
}

CheckpointStatus TcnForecaster::save(const std::string& path) const {
  RPTCN_CHECK(net_ != nullptr, "save before fit");
  return save_net(*net_, path);
}

CheckpointStatus TcnForecaster::restore(const ForecastDataset& dataset,
                                           const std::string& path) {
  build(dataset);
  curves_ = {};
  return load_net(*net_, path);
}

Tensor TcnForecaster::predict(const Tensor& inputs) {
  RPTCN_CHECK(net_ != nullptr, "predict before fit");
  return predict_net(*net_, inputs, options_.horizon, train_.batch_size);
}

// ---------------------------------------------------------------------------
// LSTM
// ---------------------------------------------------------------------------

LstmForecaster::LstmForecaster(const NnTrainConfig& train,
                               nn::LstmNetOptions options)
    : train_(train), options_(options) {}

void LstmForecaster::build(const ForecastDataset& dataset) {
  options_.input_features = dataset.train.inputs.dim(1);
  options_.horizon = dataset.horizon;
  options_.seed = train_.seed;
  net_ = std::make_unique<nn::LstmNet>(options_);
}

void LstmForecaster::fit(const ForecastDataset& dataset) {
  build(dataset);
  curves_ = fit_net(*net_, train_, dataset);
}

CheckpointStatus LstmForecaster::save(const std::string& path) const {
  RPTCN_CHECK(net_ != nullptr, "save before fit");
  return save_net(*net_, path);
}

CheckpointStatus LstmForecaster::restore(const ForecastDataset& dataset,
                                           const std::string& path) {
  build(dataset);
  curves_ = {};
  return load_net(*net_, path);
}

Tensor LstmForecaster::predict(const Tensor& inputs) {
  RPTCN_CHECK(net_ != nullptr, "predict before fit");
  return predict_net(*net_, inputs, options_.horizon, train_.batch_size);
}

// ---------------------------------------------------------------------------
// BiLSTM
// ---------------------------------------------------------------------------

BiLstmForecaster::BiLstmForecaster(const NnTrainConfig& train,
                                   nn::BiLstmNetOptions options)
    : train_(train), options_(options) {}

void BiLstmForecaster::build(const ForecastDataset& dataset) {
  options_.input_features = dataset.train.inputs.dim(1);
  options_.horizon = dataset.horizon;
  options_.seed = train_.seed;
  net_ = std::make_unique<nn::BiLstmNet>(options_);
}

void BiLstmForecaster::fit(const ForecastDataset& dataset) {
  build(dataset);
  curves_ = fit_net(*net_, train_, dataset);
}

CheckpointStatus BiLstmForecaster::save(const std::string& path) const {
  RPTCN_CHECK(net_ != nullptr, "save before fit");
  return save_net(*net_, path);
}

CheckpointStatus BiLstmForecaster::restore(const ForecastDataset& dataset,
                                           const std::string& path) {
  build(dataset);
  curves_ = {};
  return load_net(*net_, path);
}

Tensor BiLstmForecaster::predict(const Tensor& inputs) {
  RPTCN_CHECK(net_ != nullptr, "predict before fit");
  return predict_net(*net_, inputs, options_.horizon, train_.batch_size);
}

// ---------------------------------------------------------------------------
// CNN-LSTM
// ---------------------------------------------------------------------------

CnnLstmForecaster::CnnLstmForecaster(const NnTrainConfig& train,
                                     nn::CnnLstmOptions options)
    : train_(train), options_(options) {}

void CnnLstmForecaster::build(const ForecastDataset& dataset) {
  options_.input_features = dataset.train.inputs.dim(1);
  options_.horizon = dataset.horizon;
  options_.seed = train_.seed;
  net_ = std::make_unique<nn::CnnLstm>(options_);
}

void CnnLstmForecaster::fit(const ForecastDataset& dataset) {
  build(dataset);
  curves_ = fit_net(*net_, train_, dataset);
}

CheckpointStatus CnnLstmForecaster::save(const std::string& path) const {
  RPTCN_CHECK(net_ != nullptr, "save before fit");
  return save_net(*net_, path);
}

CheckpointStatus CnnLstmForecaster::restore(const ForecastDataset& dataset,
                                           const std::string& path) {
  build(dataset);
  curves_ = {};
  return load_net(*net_, path);
}

Tensor CnnLstmForecaster::predict(const Tensor& inputs) {
  RPTCN_CHECK(net_ != nullptr, "predict before fit");
  return predict_net(*net_, inputs, options_.horizon, train_.batch_size);
}

}  // namespace rptcn::models
