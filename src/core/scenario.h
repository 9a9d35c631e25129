// The paper's three input scenarios (Section V-B) and the data-preparation
// path of Algorithm 1 that produces a ForecastDataset for each.
//
//   Uni     — univariate: the predicted resource's own history only.
//   Mul     — multivariate: the top half of all indicators by |PCC| with the
//             target (Algorithm 1 lines 3-4).
//   Mul-Exp — Mul plus horizontal time-dimension expansion (Fig. 4b).
#pragma once

#include <string>

#include "data/expansion.h"
#include "data/preprocess.h"
#include "data/windowing.h"
#include "models/forecaster.h"

namespace rptcn::core {

enum class Scenario { kUni, kMul, kMulExp };

const std::string& scenario_name(Scenario scenario);
Scenario scenario_from_name(const std::string& name);

struct PrepareOptions {
  data::WindowOptions window;        ///< window/horizon/stride
  data::ExpansionOptions expansion;  ///< Mul-Exp copies/stride
  bool add_differences = false;      ///< append first-difference features
                                     ///< (paper future work, Section V-C)
  bool weighted_expansion = false;   ///< PCC-weighted copies instead of
                                     ///< uniform (paper future work)
};

/// Result of Algorithm 1 lines 1-5: the processed feature frame, the fitted
/// scaler (for mapping predictions back to resource units) and the
/// supervised dataset.
struct PreparedData {
  data::TimeSeriesFrame features;   ///< cleaned, normalised, screened, expanded
  data::MinMaxScaler scaler;        ///< fitted on the cleaned raw frame
  models::ForecastDataset dataset;  ///< windows + raw target series
};

/// Run DataClean -> Normalise -> PCC screen -> DataExpansion -> windows for
/// the given scenario, split chronologically 6:2:2 as in the paper. The
/// target is always feature channel 0.
PreparedData prepare_scenario(const data::TimeSeriesFrame& raw,
                              const std::string& target, Scenario scenario,
                              const PrepareOptions& options);

}  // namespace rptcn::core
