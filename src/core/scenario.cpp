#include "core/scenario.h"

#include <cmath>

#include "common/check.h"
#include "data/correlation.h"
#include "obs/trace.h"

namespace rptcn::core {

const std::string& scenario_name(Scenario scenario) {
  static const std::string kUni = "Uni";
  static const std::string kMul = "Mul";
  static const std::string kMulExp = "Mul-Exp";
  switch (scenario) {
    case Scenario::kUni:
      return kUni;
    case Scenario::kMul:
      return kMul;
    case Scenario::kMulExp:
      return kMulExp;
  }
  RPTCN_CHECK(false, "bad scenario");
  return kUni;  // unreachable
}

Scenario scenario_from_name(const std::string& name) {
  if (name == "Uni") return Scenario::kUni;
  if (name == "Mul") return Scenario::kMul;
  if (name == "Mul-Exp" || name == "MulExp") return Scenario::kMulExp;
  RPTCN_CHECK(false, "unknown scenario: " << name);
  return Scenario::kUni;  // unreachable
}

PreparedData prepare_scenario(const data::TimeSeriesFrame& raw,
                              const std::string& target, Scenario scenario,
                              const PrepareOptions& options) {
  RPTCN_CHECK(raw.has(target), "target indicator missing: " << target);
  PreparedData out;

  // Algorithm 1 line 1: DataClean.
  const data::TimeSeriesFrame cleaned = [&] {
    obs::TraceSpan span("pipeline/clean");
    return data::clean_drop_incomplete(raw);
  }();
  RPTCN_CHECK(cleaned.length() > options.window.window + options.window.horizon,
              "too little complete data after cleaning");

  // Line 2: min-max normalisation (eq. 1).
  const data::TimeSeriesFrame normalised = [&] {
    obs::TraceSpan span("pipeline/normalise");
    return out.scaler.fit_transform(cleaned);
  }();

  // Lines 3-4: PCC screening (Mul / Mul-Exp); Uni keeps the target alone.
  data::TimeSeriesFrame screened = [&] {
    obs::TraceSpan span("pipeline/screen");
    data::TimeSeriesFrame kept =
        scenario == Scenario::kUni
            ? normalised.select({target})
            : data::select_top_half(normalised, target);
    // Future-work extension: first-order difference features.
    if (options.add_differences)
      kept = data::expand_with_differences(kept);
    return kept;
  }();

  // Line 5: horizontal expansion (Mul-Exp only). The weighted variant
  // (paper future work) assigns lag copies in proportion to |PCC|.
  {
    obs::TraceSpan span("pipeline/expand");
    if (scenario == Scenario::kMulExp) {
      out.features =
          options.weighted_expansion
              ? data::expand_weighted(screened, target,
                                      options.expansion.copies,
                                      options.expansion.stride)
              : data::expand_horizontal(screened, options.expansion);
    } else {
      out.features = std::move(screened);
    }
  }

  // Line 6 prerequisites: windows + chronological 6:2:2 split.
  obs::TraceSpan window_span("pipeline/window");
  const auto all =
      data::make_windows(out.features, target, options.window);
  auto split = data::chrono_split(all);

  models::ForecastDataset& ds = out.dataset;
  ds.train = std::move(split.train);
  ds.valid = std::move(split.valid);
  ds.test = std::move(split.test);
  ds.window = options.window.window;
  ds.horizon = options.window.horizon;
  ds.target_channel = out.features.index_of(target);
  ds.target_series = out.features.column(target);
  // Raw-series lengths corresponding to the window split: the training
  // windows cover exactly [0, n_train + window) of the series (their last
  // target is at n_train + window + horizon - 1; we expose the history
  // boundary that sequential models may condition on without leakage).
  const std::size_t n_train = ds.train.samples();
  const std::size_t n_valid = ds.valid.samples();
  ds.train_len = n_train + options.window.window;
  ds.valid_len = n_valid;
  return out;
}

}  // namespace rptcn::core
