// ARIMA(p, d, q) baseline, estimated with the Hannan–Rissanen two-stage
// procedure:
//   stage 1: a long autoregression (OLS) approximates the innovations;
//   stage 2: OLS of the differenced series on its own lags and the lagged
//            innovation estimates gives (c, phi, theta).
// Forecasting is the standard ARMA recursion on the d-times differenced
// series, integrated back to levels. This mirrors the paper's strongest
// univariate baseline ("ARIMA mainly considers the difference between
// adjacent time intervals").
#pragma once

#include <span>
#include <vector>

namespace rptcn::baselines {

struct ArimaOptions {
  std::size_t p = 2;        ///< AR order
  std::size_t d = 1;        ///< differencing order
  std::size_t q = 1;        ///< MA order
  std::size_t long_ar = 20; ///< stage-1 AR order (>= p + q)
};

class Arima {
 public:
  explicit Arima(const ArimaOptions& options = {});

  /// Estimate (c, phi, theta) from a training series (levels, not diffs).
  void fit(std::span<const double> series);
  bool fitted() const { return fitted_; }

  /// h-step-ahead forecast continuing from the end of `history` (levels).
  /// Future innovations are set to their expectation (zero).
  std::vector<double> forecast(std::span<const double> history,
                               std::size_t steps) const;

  /// Rolling one-step-ahead predictions for series[start .. size):
  /// the prediction at index t conditions on series[0..t). This is how the
  /// accuracy benches evaluate every model on the test split.
  std::vector<double> one_step_predictions(std::span<const double> series,
                                           std::size_t start) const;

  const std::vector<double>& ar_coefficients() const { return phi_; }
  const std::vector<double>& ma_coefficients() const { return theta_; }
  double intercept() const { return intercept_; }
  const ArimaOptions& options() const { return options_; }

 private:
  /// Apply d-th order differencing.
  static std::vector<double> difference(std::span<const double> series,
                                        std::size_t d);
  /// Innovations of the fitted ARMA over a differenced series.
  std::vector<double> innovations(std::span<const double> w) const;

  ArimaOptions options_;
  bool fitted_ = false;
  double intercept_ = 0.0;
  std::vector<double> phi_;    ///< AR coefficients (lag 1..p)
  std::vector<double> theta_;  ///< MA coefficients (lag 1..q)
};

/// Grid-search (p, d, q) over small orders by AIC-like penalised in-sample
/// MSE on the differenced scale; returns the best options.
ArimaOptions select_arima_order(std::span<const double> series,
                                std::size_t max_p = 3, std::size_t max_d = 1,
                                std::size_t max_q = 2);

}  // namespace rptcn::baselines
