// Neural forecaster adapters: RPTCN, plain TCN (ablation), LSTM, CNN-LSTM.
// Each defers network construction to fit() (feature count is data-driven)
// and trains with the paper's recipe: Adam + MSE + EarlyStopping(10).
#pragma once

#include <memory>

#include "models/forecaster.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"

namespace rptcn::models {

/// Training hyper-parameters shared by the neural adapters.
struct NnTrainConfig {
  std::size_t max_epochs = 40;
  std::size_t batch_size = 32;
  float learning_rate = 1e-3f;
  std::size_t patience = 10;
  float clip_norm = 1.0f;
  std::uint64_t seed = 42;
  opt::Loss loss = opt::Loss::kMse;  ///< kPinball -> quantile forecaster
  float pinball_tau = 0.9f;
  /// Run each training batch through the planned full-step executor
  /// (graph::make_planned_step): forward + backward + clip + Adam replayed
  /// as one flat program per batch shape. Loss curves and final weights are
  /// bit-identical to the eager tape (verified per shape at capture; a
  /// mismatching shape silently trains eagerly). Ignored while
  /// RPTCN_DISABLE_PLAN=1.
  bool planned_step = true;
  /// Per-epoch callbacks forwarded to opt::fit (borrowed; must outlive
  /// fit()). An opt::LoggingObserver restores the old `verbose` output.
  std::vector<opt::EpochObserver*> observers;
};

class RptcnForecaster final : public Forecaster {
 public:
  explicit RptcnForecaster(const NnTrainConfig& train = {},
                           nn::RptcnOptions options = {});

  std::string name() const override { return "RPTCN"; }
  void fit(const ForecastDataset& dataset) override;
  Tensor predict(const Tensor& inputs) override;
  CheckpointStatus save(const std::string& path) const override;
  CheckpointStatus restore(const ForecastDataset& dataset,
                           const std::string& path) override;

  nn::RptcnNet* net() { return net_.get(); }
  const nn::RptcnNet* net() const { return net_.get(); }

 private:
  void build(const ForecastDataset& dataset);
  NnTrainConfig train_;
  nn::RptcnOptions options_;
  std::unique_ptr<nn::RptcnNet> net_;
};

/// Plain TCN readout (no FC, no attention) — the ablation reference.
class TcnForecaster final : public Forecaster {
 public:
  explicit TcnForecaster(const NnTrainConfig& train = {},
                         nn::RptcnOptions options = {});

  std::string name() const override { return "TCN"; }
  void fit(const ForecastDataset& dataset) override;
  Tensor predict(const Tensor& inputs) override;
  CheckpointStatus save(const std::string& path) const override;
  CheckpointStatus restore(const ForecastDataset& dataset,
                           const std::string& path) override;

  nn::RptcnNet* net() { return net_.get(); }
  const nn::RptcnNet* net() const { return net_.get(); }

 private:
  void build(const ForecastDataset& dataset);
  NnTrainConfig train_;
  nn::RptcnOptions options_;
  std::unique_ptr<nn::RptcnNet> net_;
};

class LstmForecaster final : public Forecaster {
 public:
  explicit LstmForecaster(const NnTrainConfig& train = {},
                          nn::LstmNetOptions options = {});

  std::string name() const override { return "LSTM"; }
  void fit(const ForecastDataset& dataset) override;
  Tensor predict(const Tensor& inputs) override;
  CheckpointStatus save(const std::string& path) const override;
  CheckpointStatus restore(const ForecastDataset& dataset,
                           const std::string& path) override;

  nn::LstmNet* net() { return net_.get(); }
  const nn::LstmNet* net() const { return net_.get(); }

 private:
  void build(const ForecastDataset& dataset);
  NnTrainConfig train_;
  nn::LstmNetOptions options_;
  std::unique_ptr<nn::LstmNet> net_;
};

class BiLstmForecaster final : public Forecaster {
 public:
  explicit BiLstmForecaster(const NnTrainConfig& train = {},
                            nn::BiLstmNetOptions options = {});

  std::string name() const override { return "BiLSTM"; }
  void fit(const ForecastDataset& dataset) override;
  Tensor predict(const Tensor& inputs) override;
  CheckpointStatus save(const std::string& path) const override;
  CheckpointStatus restore(const ForecastDataset& dataset,
                           const std::string& path) override;

  nn::BiLstmNet* net() { return net_.get(); }
  const nn::BiLstmNet* net() const { return net_.get(); }

 private:
  void build(const ForecastDataset& dataset);
  NnTrainConfig train_;
  nn::BiLstmNetOptions options_;
  std::unique_ptr<nn::BiLstmNet> net_;
};

class CnnLstmForecaster final : public Forecaster {
 public:
  explicit CnnLstmForecaster(const NnTrainConfig& train = {},
                             nn::CnnLstmOptions options = {});

  std::string name() const override { return "CNN-LSTM"; }
  void fit(const ForecastDataset& dataset) override;
  Tensor predict(const Tensor& inputs) override;
  CheckpointStatus save(const std::string& path) const override;
  CheckpointStatus restore(const ForecastDataset& dataset,
                           const std::string& path) override;

  nn::CnnLstm* net() { return net_.get(); }
  const nn::CnnLstm* net() const { return net_.get(); }

 private:
  void build(const ForecastDataset& dataset);
  NnTrainConfig train_;
  nn::CnnLstmOptions options_;
  std::unique_ptr<nn::CnnLstm> net_;
};

}  // namespace rptcn::models
