#include <gtest/gtest.h>

#include <cmath>

#include "baselines/arima.h"
#include "baselines/linreg.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/metrics.h"

namespace rptcn::baselines {
namespace {

std::vector<double> gen_ar1(double phi, double sigma, std::size_t n,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x{0.0};
  for (std::size_t i = 1; i < n; ++i)
    x.push_back(phi * x.back() + rng.normal(0.0, sigma));
  return x;
}

std::vector<double> gen_random_walk(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x{0.0};
  for (std::size_t i = 1; i < n; ++i)
    x.push_back(x.back() + rng.normal(0.0, 0.1));
  return x;
}

// --- linear regression substrate -------------------------------------------

TEST(LinReg, SolvesExactSystem) {
  // y = 2 a + 3 b, noiseless.
  std::vector<double> design, target;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const double a = rng.normal(), b = rng.normal();
    design.push_back(a);
    design.push_back(b);
    target.push_back(2.0 * a + 3.0 * b);
  }
  const auto coef = least_squares(design, 50, 2, target);
  EXPECT_NEAR(coef[0], 2.0, 1e-6);
  EXPECT_NEAR(coef[1], 3.0, 1e-6);
}

TEST(LinReg, RidgeShrinksTowardZero) {
  std::vector<double> design = {1.0, 1.0, 1.0, 1.0};
  std::vector<double> target = {1.0, 1.0, 1.0, 1.0};
  const auto exact = least_squares(design, 4, 1, target, 0.0);
  const auto ridged = least_squares(design, 4, 1, target, 10.0);
  EXPECT_NEAR(exact[0], 1.0, 1e-9);
  EXPECT_LT(ridged[0], exact[0]);
}

TEST(LinReg, RejectsBadDimensions) {
  std::vector<double> design = {1.0, 2.0};
  std::vector<double> target = {1.0};
  EXPECT_THROW(least_squares(design, 1, 3, target), CheckError);
  EXPECT_THROW(least_squares(design, 1, 2, {}), CheckError);
}

TEST(LinReg, CholeskyDetectsNonSpd) {
  std::vector<double> m = {0.0, 0.0, 0.0, 0.0};  // singular
  std::vector<double> rhs = {1.0, 1.0};
  EXPECT_FALSE(cholesky_solve(m, rhs, 2));
}

TEST(LinReg, CholeskySolvesSpdSystem) {
  // [[4,2],[2,3]] x = [10, 9] -> x = [1.5, 2.0]... verify by substitution.
  std::vector<double> m = {4.0, 2.0, 2.0, 3.0};
  std::vector<double> rhs = {10.0, 9.0};
  ASSERT_TRUE(cholesky_solve(m, rhs, 2));
  EXPECT_NEAR(4.0 * rhs[0] + 2.0 * rhs[1], 10.0, 1e-9);
  EXPECT_NEAR(2.0 * rhs[0] + 3.0 * rhs[1], 9.0, 1e-9);
}

// --- ARIMA ------------------------------------------------------------------

TEST(Arima, RecoversAr1Coefficient) {
  const auto series = gen_ar1(0.8, 0.1, 4000, 11);
  ArimaOptions opt;
  opt.p = 1;
  opt.d = 0;
  opt.q = 0;
  Arima model(opt);
  model.fit(series);
  ASSERT_EQ(model.ar_coefficients().size(), 1u);
  EXPECT_NEAR(model.ar_coefficients()[0], 0.8, 0.05);
}

TEST(Arima, OneStepBeatsMeanOnAr1) {
  const auto series = gen_ar1(0.9, 0.1, 3000, 13);
  ArimaOptions opt;
  opt.p = 2;
  opt.d = 0;
  opt.q = 1;
  Arima model(opt);
  const std::size_t split = 2400;
  model.fit({series.data(), split});
  const auto preds = model.one_step_predictions(series, split);
  const std::vector<double> truth(series.begin() + split, series.end());
  const double model_mse = core::mse(truth, preds);
  // Mean-of-train predictor as the floor.
  double train_mean = 0.0;
  for (std::size_t i = 0; i < split; ++i) train_mean += series[i];
  train_mean /= static_cast<double>(split);
  const std::vector<double> mean_pred(truth.size(), train_mean);
  EXPECT_LT(model_mse, 0.5 * core::mse(truth, mean_pred));
}

TEST(Arima, DifferencedModelTracksRandomWalk) {
  // On a pure random walk, ARIMA(_,1,_) one-step prediction should be close
  // to the last observed value (innovation mean ~0).
  const auto series = gen_random_walk(2000, 17);
  ArimaOptions opt;
  opt.p = 1;
  opt.d = 1;
  opt.q = 1;
  Arima model(opt);
  model.fit({series.data(), 1500});
  const auto preds = model.one_step_predictions(series, 1500);
  // Persistence, yhat_t = y_{t-1}: the optimum for a random walk.
  const std::vector<double> naive(series.begin() + 1499, series.end() - 1);
  const std::vector<double> truth(series.begin() + 1500, series.end());
  // Within 10% of the naive predictor's MSE.
  EXPECT_LT(core::mse(truth, preds), 1.1 * core::mse(truth, naive));
}

TEST(Arima, ForecastLengthAndContinuity) {
  const auto series = gen_ar1(0.7, 0.2, 1000, 19);
  ArimaOptions opt;
  opt.p = 2;
  opt.d = 1;
  opt.q = 1;
  Arima model(opt);
  model.fit(series);
  const auto fc = model.forecast(series, 5);
  ASSERT_EQ(fc.size(), 5u);
  // First forecast stays near the last level for a mean-reverting series.
  EXPECT_NEAR(fc[0], series.back(), 1.0);
  for (double v : fc) EXPECT_TRUE(std::isfinite(v));
}

TEST(Arima, MultiStepForecastOfLinearTrend) {
  // y_t = t: with d=1 the differenced series is constant 1, so the forecast
  // must continue the trend almost exactly.
  std::vector<double> series(300);
  for (std::size_t i = 0; i < 300; ++i) series[i] = static_cast<double>(i);
  ArimaOptions opt;
  opt.p = 1;
  opt.d = 1;
  opt.q = 0;
  Arima model(opt);
  model.fit(series);
  const auto fc = model.forecast(series, 3);
  EXPECT_NEAR(fc[0], 300.0, 0.5);
  EXPECT_NEAR(fc[1], 301.0, 1.0);
  EXPECT_NEAR(fc[2], 302.0, 1.5);
}

TEST(Arima, ErrorsBeforeFitAndOnShortSeries) {
  Arima model;
  const auto series = gen_ar1(0.5, 0.1, 40, 21);
  EXPECT_THROW(model.forecast(series, 3), CheckError);
  EXPECT_THROW(model.one_step_predictions(series, 10), CheckError);
  Arima model2;
  EXPECT_THROW(model2.fit({series.data(), 15}), CheckError);
}

TEST(Arima, InvalidOptionsRejected) {
  ArimaOptions opt;
  opt.p = 5;
  opt.q = 5;
  opt.long_ar = 3;  // < p + q
  EXPECT_THROW(Arima{opt}, CheckError);
}

TEST(Arima, OrderSelectionPicksWorkingOrder) {
  const auto series = gen_ar1(0.85, 0.1, 1500, 23);
  const auto opt = select_arima_order(series, 2, 1, 1);
  EXPECT_GE(opt.p + opt.q, 1u);
  Arima model(opt);
  model.fit(series);  // must not throw
  EXPECT_TRUE(model.fitted());
}

TEST(Arima, PureArPathWithoutMa) {
  // q = 0: stage 2 regresses on AR lags only.
  const auto series = gen_ar1(0.7, 0.1, 2000, 31);
  ArimaOptions opt;
  opt.p = 1;
  opt.d = 0;
  opt.q = 0;
  Arima model(opt);
  model.fit(series);
  EXPECT_TRUE(model.ma_coefficients().empty());
  EXPECT_NEAR(model.ar_coefficients()[0], 0.7, 0.06);
}

TEST(Arima, SecondOrderDifferencing) {
  // y_t = t^2: Δ²y is constant, so an ARIMA(1,2,0) forecast continues the
  // quadratic almost exactly.
  std::vector<double> series(200);
  for (std::size_t i = 0; i < 200; ++i)
    series[i] = static_cast<double>(i) * static_cast<double>(i);
  ArimaOptions opt;
  opt.p = 1;
  opt.d = 2;
  opt.q = 0;
  Arima model(opt);
  model.fit(series);
  const auto fc = model.forecast(series, 2);
  EXPECT_NEAR(fc[0], 200.0 * 200.0, 50.0);
  EXPECT_NEAR(fc[1], 201.0 * 201.0, 120.0);
}

TEST(Arima, OneStepPredictionsAlignWithForecast) {
  // The first rolling one-step prediction must equal a 1-step forecast from
  // the same history.
  const auto series = gen_ar1(0.8, 0.15, 1200, 37);
  ArimaOptions opt;
  opt.p = 2;
  opt.d = 1;
  opt.q = 1;
  Arima model(opt);
  model.fit({series.data(), 1000});
  const std::size_t start = 1000;
  const auto rolling = model.one_step_predictions(series, start);
  const auto direct = model.forecast({series.data(), start}, 1);
  EXPECT_NEAR(rolling[0], direct[0], 1e-9);
}

TEST(Arima, ConstantSeriesFitsThroughTheRidge) {
  // A flat series differences to all zeros, so every lag column of both
  // OLS stages is zero and the plain normal equations are singular. The
  // ridge term keeps them positive definite: the fit succeeds with zero
  // coefficients and forecasts the level exactly.
  const std::vector<double> flat(200, 5.0);
  Arima model;
  ASSERT_NO_THROW(model.fit(flat));
  for (const double c : model.ar_coefficients()) EXPECT_EQ(c, 0.0);
  for (const double c : model.ma_coefficients()) EXPECT_EQ(c, 0.0);
  for (const double v : model.forecast(flat, 3)) EXPECT_EQ(v, 5.0);
  const std::vector<double> zeros(10, 0.0);
  std::vector<double> design(10 * 2, 0.0);
  for (std::size_t r = 0; r < 10; ++r) design[r * 2] = 1.0;
  EXPECT_THROW(least_squares(design, 10, 2, zeros, /*ridge=*/0.0), CheckError)
      << "without the ridge the zero lag column is singular";
}

}  // namespace
}  // namespace rptcn::baselines
