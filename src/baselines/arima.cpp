#include "baselines/arima.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/linreg.h"
#include "common/check.h"

namespace rptcn::baselines {

Arima::Arima(const ArimaOptions& options) : options_(options) {
  RPTCN_CHECK(options.long_ar >= options.p + options.q,
              "long_ar must be >= p + q");
}

std::vector<double> Arima::difference(std::span<const double> series,
                                      std::size_t d) {
  std::vector<double> w(series.begin(), series.end());
  for (std::size_t round = 0; round < d; ++round) {
    RPTCN_CHECK(w.size() >= 2, "series too short to difference");
    for (std::size_t i = 0; i + 1 < w.size(); ++i) w[i] = w[i + 1] - w[i];
    w.pop_back();
  }
  return w;
}

void Arima::fit(std::span<const double> series) {
  const std::size_t p = options_.p, q = options_.q;
  std::vector<double> w = difference(series, options_.d);
  const std::size_t n = w.size();
  const std::size_t long_ar =
      std::min(options_.long_ar, std::max<std::size_t>(p + q, n / 4));
  RPTCN_CHECK(n > long_ar + p + q + 10,
              "series too short for ARIMA estimation: " << n << " points");

  // Stage 1: long AR by OLS -> innovation estimates.
  std::vector<double> ehat(n, 0.0);
  {
    const std::size_t rows = n - long_ar;
    const std::size_t cols = long_ar + 1;
    std::vector<double> design(rows * cols);
    std::vector<double> target(rows);
    for (std::size_t t = long_ar; t < n; ++t) {
      double* row = design.data() + (t - long_ar) * cols;
      row[0] = 1.0;
      for (std::size_t i = 1; i <= long_ar; ++i) row[i] = w[t - i];
      target[t - long_ar] = w[t];
    }
    const auto coef = least_squares(design, rows, cols, target);
    for (std::size_t t = long_ar; t < n; ++t) {
      double pred = coef[0];
      for (std::size_t i = 1; i <= long_ar; ++i) pred += coef[i] * w[t - i];
      ehat[t] = w[t] - pred;
    }
  }

  // Stage 2: OLS of w_t on lags of w and lags of ehat.
  const std::size_t t0 = long_ar + std::max(p, q);
  const std::size_t rows = n - t0;
  const std::size_t cols = 1 + p + q;
  std::vector<double> design(rows * cols);
  std::vector<double> target(rows);
  for (std::size_t t = t0; t < n; ++t) {
    double* row = design.data() + (t - t0) * cols;
    row[0] = 1.0;
    for (std::size_t i = 1; i <= p; ++i) row[i] = w[t - i];
    for (std::size_t j = 1; j <= q; ++j) row[p + j] = ehat[t - j];
    target[t - t0] = w[t];
  }
  const auto coef = least_squares(design, rows, cols, target);
  intercept_ = coef[0];
  phi_.assign(coef.begin() + 1, coef.begin() + 1 + p);
  theta_.assign(coef.begin() + 1 + p, coef.end());
  fitted_ = true;
}

std::vector<double> Arima::innovations(std::span<const double> w) const {
  const std::size_t p = options_.p, q = options_.q;
  std::vector<double> e(w.size(), 0.0);
  for (std::size_t t = 0; t < w.size(); ++t) {
    double pred = intercept_;
    for (std::size_t i = 1; i <= p; ++i)
      if (t >= i) pred += phi_[i - 1] * w[t - i];
    for (std::size_t j = 1; j <= q; ++j)
      if (t >= j) pred += theta_[j - 1] * e[t - j];
    e[t] = w[t] - pred;
  }
  return e;
}

std::vector<double> Arima::forecast(std::span<const double> history,
                                    std::size_t steps) const {
  RPTCN_CHECK(fitted_, "Arima::forecast before fit");
  RPTCN_CHECK(history.size() > options_.d + std::max(options_.p, options_.q),
              "history too short");
  std::vector<double> w = difference(history, options_.d);
  std::vector<double> e = innovations(w);

  // Last value of each difference order, for integration.
  std::vector<double> levels(options_.d);
  {
    std::vector<double> cur(history.begin(), history.end());
    for (std::size_t k = 0; k < options_.d; ++k) {
      levels[k] = cur.back();
      for (std::size_t i = 0; i + 1 < cur.size(); ++i) cur[i] = cur[i + 1] - cur[i];
      cur.pop_back();
    }
  }

  std::vector<double> out;
  out.reserve(steps);
  for (std::size_t h = 0; h < steps; ++h) {
    double what = intercept_;
    for (std::size_t i = 1; i <= options_.p; ++i)
      if (w.size() >= i) what += phi_[i - 1] * w[w.size() - i];
    for (std::size_t j = 1; j <= options_.q; ++j)
      if (e.size() >= j) what += theta_[j - 1] * e[e.size() - j];
    w.push_back(what);
    e.push_back(0.0);  // expected future innovation

    // Integrate Δ^d -> levels.
    double val = what;
    for (std::size_t k = options_.d; k-- > 0;) {
      val = levels[k] + val;
      levels[k] = val;
    }
    out.push_back(val);
  }
  return out;
}

std::vector<double> Arima::one_step_predictions(std::span<const double> series,
                                                std::size_t start) const {
  RPTCN_CHECK(fitted_, "Arima::one_step_predictions before fit");
  const std::size_t d = options_.d;
  RPTCN_CHECK(start > d + std::max(options_.p, options_.q),
              "start index leaves no history");
  RPTCN_CHECK(start < series.size(), "start beyond series");

  const std::vector<double> w = difference(series, d);
  const std::vector<double> e = innovations(w);

  // Difference stacks for the integration term: diffs[k] = Δ^k series.
  std::vector<std::vector<double>> diffs(d + 1);
  diffs[0].assign(series.begin(), series.end());
  for (std::size_t k = 1; k <= d; ++k) diffs[k] = difference(series, k);

  std::vector<double> out;
  out.reserve(series.size() - start);
  for (std::size_t t = start; t < series.size(); ++t) {
    const std::size_t j = t - d;  // index into the differenced series
    double what = intercept_;
    for (std::size_t i = 1; i <= options_.p; ++i)
      if (j >= i) what += phi_[i - 1] * w[j - i];
    for (std::size_t jj = 1; jj <= options_.q; ++jj)
      if (j >= jj) what += theta_[jj - 1] * e[j - jj];
    // yhat_t = what + sum_{k=0}^{d-1} (Δ^k y)_{t-1}.
    double yhat = what;
    for (std::size_t k = 0; k < d; ++k) yhat += diffs[k][t - 1 - k];
    out.push_back(yhat);
  }
  return out;
}

ArimaOptions select_arima_order(std::span<const double> series,
                                std::size_t max_p, std::size_t max_d,
                                std::size_t max_q) {
  ArimaOptions best;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d <= max_d; ++d) {
    for (std::size_t p = 0; p <= max_p; ++p) {
      for (std::size_t q = 0; q <= max_q; ++q) {
        if (p + q == 0) continue;
        ArimaOptions opt;
        opt.p = p;
        opt.d = d;
        opt.q = q;
        try {
          Arima model(opt);
          model.fit(series);
          // Penalised one-step in-sample MSE (AIC-flavoured).
          const std::size_t start = series.size() / 4 + d + p + q + 1;
          const auto preds = model.one_step_predictions(series, start);
          double mse = 0.0;
          for (std::size_t i = 0; i < preds.size(); ++i) {
            const double err = preds[i] - series[start + i];
            mse += err * err;
          }
          mse /= static_cast<double>(preds.size());
          const double n = static_cast<double>(preds.size());
          const double score =
              n * std::log(std::max(mse, 1e-300)) +
              2.0 * static_cast<double>(p + q + 1);
          if (score < best_score) {
            best_score = score;
            best = opt;
          }
        } catch (const CheckError&) {
          // Degenerate order for this series; skip.
        }
      }
    }
  }
  return best;
}

}  // namespace rptcn::baselines
