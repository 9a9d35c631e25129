// RptcnPipeline — the end-to-end facade of Algorithm 1 and the main public
// entry point of this library:
//
//   rptcn::core::PipelineConfig cfg;
//   rptcn::core::RptcnPipeline pipeline(cfg);
//   pipeline.fit(history_frame);                   // Algorithm 1, lines 1-6
//   auto next = pipeline.predict_next();           // cpu_{m+1..m+k}, raw units
//   auto acc  = pipeline.test_accuracy();          // held-out MSE/MAE
//
// The pipeline owns the preprocessing state (scaler, screened features) and
// any Forecaster from the registry, defaulting to RPTCN itself.
#pragma once

#include <memory>
#include <string>

#include "core/scenario.h"
#include "models/registry.h"

namespace rptcn::core {

struct PipelineConfig {
  std::string target = "cpu_util_percent";
  std::string model_name = "RPTCN";
  Scenario scenario = Scenario::kMulExp;
  PrepareOptions prepare;
  models::ModelConfig model;
};

class RptcnPipeline {
 public:
  explicit RptcnPipeline(PipelineConfig config);

  /// Run Algorithm 1 on a raw indicator frame: clean, normalise, screen,
  /// expand, window, train (with validation-based early stopping).
  void fit(const data::TimeSeriesFrame& history);
  bool fitted() const { return forecaster_ != nullptr; }

  /// Persist the trained model's weights. kUnsupported for models without
  /// weight checkpoints (ARIMA, XGBoost — refitting those is cheap).
  models::CheckpointStatus save_model(const std::string& path) const;
  /// Run Algorithm 1's preprocessing on `history` but load weights from a
  /// checkpoint instead of training. On any non-kOk status the pipeline is
  /// left unfitted (fitted() == false) rather than half-restored.
  models::CheckpointStatus restore(const data::TimeSeriesFrame& history,
                                   const std::string& path);

  /// Forecast the next horizon steps of the target after the end of the
  /// fitted history, mapped back to original resource units.
  std::vector<double> predict_next() const;

  /// Predictions for every held-out test window (normalised units).
  Tensor predict_test() const;
  /// MSE / MAE on the held-out test windows (normalised units, like the
  /// paper's Table II).
  models::Accuracy test_accuracy() const;

  const models::TrainCurves& curves() const;
  const models::ForecastDataset& dataset() const;
  /// The fitted forecaster (null before fit()/restore()). Non-const because
  /// a serve::InferenceSession over a model without a net (ARIMA, XGBoost)
  /// serves through its non-const predict().
  models::Forecaster* forecaster() { return forecaster_.get(); }
  const data::MinMaxScaler& scaler() const;
  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
  PreparedData prepared_;
  std::unique_ptr<models::Forecaster> forecaster_;
};

}  // namespace rptcn::core
