// The one neural forecaster adapter. NetForecaster fits, predicts, saves and
// restores any nn::ForecastNet (RPTCN, plain TCN, LSTM, BiLSTM, CNN-LSTM).
// It builds the net in fit() (the feature count is data-driven) and trains
// it with the paper's recipe: Adam + MSE + EarlyStopping(10).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "models/forecaster.h"
#include "nn/module.h"

namespace rptcn::models {

/// Training hyper-parameters shared by every neural forecaster.
struct NnTrainConfig {
  std::size_t max_epochs = 40;
  std::size_t batch_size = 32;
  float learning_rate = 1e-3f;
  std::size_t patience = 10;
  float clip_norm = 1.0f;
  std::uint64_t seed = 42;
  opt::Loss loss = opt::Loss::kMse;  ///< kPinball -> quantile forecaster
  float pinball_tau = 0.9f;
  /// Per-epoch callbacks forwarded to opt::fit (borrowed; must outlive
  /// fit()). An opt::LoggingObserver restores the old `verbose` output.
  std::vector<opt::EpochObserver*> observers;
};

/// Builds a freshly initialised net for `input_features` channels,
/// `horizon` forecast steps and weight seed `seed`.
using NetFactory = std::function<std::unique_ptr<nn::ForecastNet>(
    std::size_t input_features, std::size_t horizon, std::uint64_t seed)>;

/// A NetFactory for `Net` built from `options`, whose input_features,
/// horizon and seed fields the factory's arguments overwrite.
template <typename Net, typename Options>
NetFactory net_factory(Options options) {
  return [options](std::size_t input_features, std::size_t horizon,
                   std::uint64_t seed) -> std::unique_ptr<nn::ForecastNet> {
    Options o = options;
    o.input_features = input_features;
    o.horizon = horizon;
    o.seed = seed;
    return std::make_unique<Net>(o);
  };
}

class NetForecaster final : public Forecaster {
 public:
  NetForecaster(std::string name, const NnTrainConfig& train,
                NetFactory make_net);

  std::string name() const override { return name_; }
  /// Builds a fresh net (seeded with the training seed) and trains it; each
  /// batch runs through the planned training step unless planning is off
  /// (graph::set_planning_enabled).
  void fit(const ForecastDataset& dataset) override;
  Tensor predict(const Tensor& inputs) override;
  CheckpointStatus save(const std::string& path) const override;
  /// On any status but kOk the model is left unfitted: no net, no curves.
  CheckpointStatus restore(const ForecastDataset& dataset,
                           const std::string& path) override;

  /// The fitted net; null before fit() and after a failed restore().
  nn::ForecastNet* net() { return net_.get(); }
  const nn::ForecastNet* net() const { return net_.get(); }

 private:
  void build(const ForecastDataset& dataset);

  std::string name_;
  NnTrainConfig train_;
  NetFactory make_net_;
  std::unique_ptr<nn::ForecastNet> net_;
};

}  // namespace rptcn::models
