// Pluggable per-entity demand forecasters for the scheduling loop.
//
// A ForecastSource maps trailing raw history (a Table-I frame, newest row
// last) to next-tick resource demand in raw trace units (utilisation
// percent). Two families:
//
//  * Naive baselines — last value, max over a trailing window. These are
//    the frontier's lower bound and, because last-value tracks regime
//    shifts instantly, a surprisingly strong one under drift.
//  * SessionSource — a learned model (any registry forecaster: RPTCN,
//    LSTM, ARIMA, ...) fitted through the exact streaming recipe
//    (stream::fit_generation_gated under a frozen min-max normalizer) and
//    served through serve::InferenceSession. refit() re-fits on fresh
//    history — the adaptive mode the drift benches compare against frozen.
//
// A fleet's own forecasts need no source: an allocator reads them in bulk
// through fleet::FleetManager::latest_forecasts().
//
// CPU is the forecast target (the paper's); every source forecasts memory
// naively as the last observed value, so frontier differences between
// sources isolate CPU forecast quality.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/timeseries.h"
#include "serve/session.h"
#include "stream/normalizer.h"
#include "stream/retrain.h"

namespace rptcn::sched {

/// Next-tick demand in raw trace units (utilisation percent, 0-100 scale).
struct ResourceForecast {
  double cpu = 0.0;
  double mem = 0.0;
};

class ForecastSource {
 public:
  virtual ~ForecastSource() = default;
  virtual const std::string& name() const = 0;
  /// Forecast next-tick demand from trailing history (all eight Table-I
  /// columns present, newest row last, at least `min_history()` rows).
  virtual ResourceForecast forecast(const data::TimeSeriesFrame& history) = 0;
  /// Rows of history forecast() needs.
  virtual std::size_t min_history() const { return 1; }
  /// Adaptive hook: re-fit on fresh history. Default: frozen (no-op).
  virtual void refit(const data::TimeSeriesFrame& history) { (void)history; }
};

/// Demand = the newest observation. Adapts to any regime in one tick, pays
/// for it with zero anticipation of bursts.
class LastValueSource final : public ForecastSource {
 public:
  const std::string& name() const override { return name_; }
  ResourceForecast forecast(const data::TimeSeriesFrame& history) override;

 private:
  std::string name_ = "naive-last";
};

/// Demand = max over the trailing `window` observations — the classic
/// peak-provisioning rule: few violations, heavy over-provisioning.
class MaxWindowSource final : public ForecastSource {
 public:
  explicit MaxWindowSource(std::size_t window);
  const std::string& name() const override { return name_; }
  ResourceForecast forecast(const data::TimeSeriesFrame& history) override;
  std::size_t min_history() const override { return 1; }

 private:
  std::string name_;
  std::size_t window_;
};

struct SessionSourceOptions {
  /// Feature columns for the model, target (cpu) first. Must all be
  /// Table-I indicator names present in the history frames.
  std::vector<std::string> features = {"cpu_util_percent",
                                       "mem_util_percent"};
  /// Model + fit recipe; model_name/model select the registry forecaster.
  stream::RetrainOptions retrain;
};

/// A learned forecaster behind the streaming fit recipe. Construction fits
/// generation 1 on the bootstrap history and throws (common::CheckError)
/// if even the gated retries fail — a scheduler must not start without a
/// model. refit() fits the next generation on fresh history; a failed
/// refit keeps the incumbent serving, exactly like the streaming layer.
class SessionSource final : public ForecastSource {
 public:
  SessionSource(std::string name, const data::TimeSeriesFrame& bootstrap,
                SessionSourceOptions options);

  const std::string& name() const override { return name_; }
  ResourceForecast forecast(const data::TimeSeriesFrame& history) override;
  std::size_t min_history() const override {
    return options_.retrain.window.window;
  }
  void refit(const data::TimeSeriesFrame& history) override;

  std::uint64_t generation() const { return generation_; }
  const stream::RetrainOutcome& last_outcome() const { return last_outcome_; }
  const serve::InferenceSession& session() const { return *session_; }

 private:
  /// Fit one generation on `history` (feature-selected tail); installs the
  /// session only when the fit produced one.
  void fit(const data::TimeSeriesFrame& history, const std::string& reason);

  std::string name_;
  SessionSourceOptions options_;
  stream::OnlineNormalizer normalizer_;  ///< frozen at each fit
  std::shared_ptr<const serve::InferenceSession> session_;
  std::uint64_t generation_ = 0;
  stream::RetrainOutcome last_outcome_;
};

}  // namespace rptcn::sched
