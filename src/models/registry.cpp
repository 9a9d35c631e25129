#include "models/registry.h"

#include <cctype>
#include <sstream>

#include "common/check.h"
#include "models/arima_forecaster.h"
#include "models/gbt_forecaster.h"

namespace rptcn::models {

namespace {

/// Builds the model a row names; `name` is the row's canonical spelling.
using Make = std::unique_ptr<Forecaster> (*)(const std::string& name,
                                            const ModelConfig& config);

struct Row {
  const char* name;
  Make make;
};

/// A NetForecaster over `Net`, architecture taken from `config.*kOptions`.
template <typename Net, auto kOptions>
std::unique_ptr<Forecaster> neural(const std::string& name,
                                   const ModelConfig& config) {
  return std::make_unique<NetForecaster>(name, config.nn,
                                         net_factory<Net>(config.*kOptions));
}

/// The ablation reference: RPTCN's backbone and head, no FC, no attention.
std::unique_ptr<Forecaster> tcn(const std::string& name,
                                const ModelConfig& config) {
  nn::RptcnOptions options = config.rptcn;
  options.use_attention = false;
  options.use_fc = false;
  return std::make_unique<NetForecaster>(name, config.nn,
                                         net_factory<nn::RptcnNet>(options));
}

std::unique_ptr<Forecaster> arima(const std::string&,
                                  const ModelConfig& config) {
  return std::make_unique<ArimaForecaster>(config.arima,
                                           config.arima_auto_order);
}

std::unique_ptr<Forecaster> xgboost(const std::string&,
                                    const ModelConfig& config) {
  return std::make_unique<GbtForecaster>(config.gbt);
}

/// Every registry model, in Table II order.
const Row kRows[] = {
    {"ARIMA", arima},
    {"LSTM", neural<nn::LstmNet, &ModelConfig::lstm>},
    {"CNN-LSTM", neural<nn::CnnLstm, &ModelConfig::cnn_lstm>},
    {"XGBoost", xgboost},
    {"RPTCN", neural<nn::RptcnNet, &ModelConfig::rptcn>},
    {"TCN", tcn},
    {"BiLSTM", neural<nn::BiLstmNet, &ModelConfig::bilstm>},
};

std::string lower(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string joined_names() {
  std::ostringstream out;
  const auto& names = forecaster_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ", ";
    out << names[i];
  }
  return out.str();
}

/// Case-insensitive lookup: "rptcn" and "RPTCN" are the same model.
const Row* find_row(const std::string& name) {
  const std::string key = lower(name);
  for (const Row& row : kRows)
    if (lower(row.name) == key) return &row;
  return nullptr;
}

}  // namespace

const std::vector<std::string>& forecaster_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Row& row : kRows) names.emplace_back(row.name);
    return names;
  }();
  return kNames;
}

void ForecasterSpec::validate() const {
  RPTCN_CHECK(find_row(name) != nullptr,
              "ForecasterSpec.name is unknown: " << name << " (known: "
                                                 << joined_names() << ")");
}

std::vector<ForecasterSpec> list_forecasters() {
  std::vector<ForecasterSpec> specs;
  for (const std::string& name : forecaster_names()) {
    ForecasterSpec spec;
    spec.name = name;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::unique_ptr<Forecaster> make_forecaster(const ForecasterSpec& spec) {
  return make_forecaster(spec.name, spec.config);
}

std::unique_ptr<Forecaster> make_forecaster(const std::string& name,
                                            const ModelConfig& config) {
  const Row* row = find_row(name);
  RPTCN_CHECK(row != nullptr, "unknown forecaster: " << name << " (known: "
                                                     << joined_names() << ")");
  return row->make(row->name, config);
}

}  // namespace rptcn::models
