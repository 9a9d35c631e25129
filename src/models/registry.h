// Forecaster factory, so benches and examples can instantiate models by
// name. One table in registry.cpp lists every model once, as a
// {name, factory} row; forecaster_names(), ForecasterSpec::validate,
// list_forecasters() and make_forecaster all read it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/arima.h"
#include "baselines/gbt.h"
#include "models/forecaster.h"
#include "models/net_forecaster.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"

namespace rptcn::models {

struct ModelConfig {
  NnTrainConfig nn;                ///< shared NN training recipe
  nn::RptcnOptions rptcn;          ///< RPTCN / TCN (no FC, no attention)
  nn::LstmNetOptions lstm;         ///< LSTM architecture
  nn::BiLstmNetOptions bilstm;     ///< BiLSTM architecture
  nn::CnnLstmOptions cnn_lstm;     ///< CNN-LSTM architecture
  baselines::GbtOptions gbt;       ///< XGBoost baseline
  baselines::ArimaOptions arima;   ///< ARIMA baseline
  bool arima_auto_order = false;
};

/// Names accepted by make_forecaster, in Table II order.
const std::vector<std::string>& forecaster_names();

/// A typed cold-start recipe: canonical model name plus the hyperparameter
/// overrides to build it with. The unit the fleet registry stores per
/// cohort, so heterogeneous entities (one cohort on RPTCN, another on a
/// small LSTM) are described by data instead of string-splicing.
struct ForecasterSpec {
  std::string name = "LSTM";  ///< any list_forecasters() entry
  ModelConfig config;         ///< architecture + training recipe overrides

  /// Throws common::CheckError naming the field when `name` is unknown;
  /// the error carries the full known-names list.
  void validate() const;
};

/// One row per instantiable model: the canonical spelling paired with a
/// default-config spec — the discovery companion to make_forecaster.
std::vector<ForecasterSpec> list_forecasters();

/// Instantiate a forecaster by name; throws CheckError on unknown names
/// (the message keeps the known-names list).
std::unique_ptr<Forecaster> make_forecaster(const std::string& name,
                                            const ModelConfig& config = {});

/// Typed-spec overload: exactly make_forecaster(spec.name, spec.config).
std::unique_ptr<Forecaster> make_forecaster(const ForecasterSpec& spec);

}  // namespace rptcn::models
