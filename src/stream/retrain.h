// Fitting one model generation from a stream's trailing history.
//
// build_dataset() turns a trailing raw frame plus the stream's normalizer
// into a supervised dataset (the batch pipeline's transform -> window ->
// chronological-split recipe); fit_generation() fits a fresh registry
// forecaster on it with the opt:: trainer and snapshots it into an
// InferenceSession; fit_generation_gated() adds the validation-loss quality
// gate with perturbed-seed retries and checkpoints the winner. These are
// the bodies of FleetManager's cohort bootstrap and drift retrains and of
// sched::SessionSource; installing a fitted generation is the caller's job.
//
// Failure containment: a fit that throws is reported in outcome.error with
// no session, and a checkpoint save reports its models::CheckpointStatus
// through RetrainOutcome, so an installer can refuse a generation whose
// restorable state could not be written. kUnsupported (ARIMA/XGBoost) is
// not a failure: those models have no weight checkpoints.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "data/windowing.h"
#include "models/registry.h"
#include "serve/session.h"
#include "stream/normalizer.h"

namespace rptcn::stream {

struct RetrainOptions {
  std::string model_name = "LSTM";   ///< any models::make_forecaster name
  models::ModelConfig model;         ///< architecture + training recipe
  std::size_t history = 512;         ///< trailing ticks to fit on
  data::WindowOptions window;        ///< supervised window/horizon/stride
  std::size_t min_ticks_between = 64;  ///< cooldown between triggers
  std::string checkpoint_dir;        ///< per-generation weights ("" = none)
  /// Quality gate: a fit whose best validation loss (normalised units)
  /// exceeds this is retried with a perturbed weight seed, and if every
  /// attempt fails the gate the generation is flagged quality_rejected — a
  /// retrain is then not installed, so the incumbent keeps serving and the
  /// drift detectors re-trigger if it is genuinely stale.
  /// Fixed-seed training occasionally early-stops in a bad basin on one
  /// trailing window (an order of magnitude above its neighbours' loss);
  /// shipping such a generation costs far more than one extra fit. 0 = off.
  double max_valid_loss = 0.0;
  std::size_t fit_attempts = 2;      ///< total tries while the gate fails

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

struct RetrainOutcome {
  std::uint64_t generation = 0;      ///< generation the fit would install as
  models::CheckpointStatus checkpoint = models::CheckpointStatus::kUnsupported;
  std::string checkpoint_path;       ///< set when a checkpoint was written
  std::string reason;                ///< what triggered the retrain
  std::string error;                 ///< non-empty when fit threw
  double fit_seconds = 0.0;          ///< total across gate-retry attempts
  double valid_loss = 0.0;           ///< best validation loss of the fit
  std::size_t train_samples = 0;
  std::size_t attempts = 1;          ///< fits run (> 1 when the gate retried)
  bool quality_rejected = false;     ///< every attempt failed max_valid_loss
};

/// A fitted generation. The session co-owns the forecaster when it
/// delegates (ARIMA/XGBoost), so holding the session alone is always
/// lifetime-safe; the forecaster rides along here for checkpointing.
struct FittedGeneration {
  std::shared_ptr<models::Forecaster> forecaster;
  std::shared_ptr<const serve::InferenceSession> session;
  RetrainOutcome outcome;
};

/// Write `g`'s weights to
/// `<checkpoint_dir>/<name>.gen_<outcome.generation>.ckpt`, recording status
/// and path in `g.outcome`. `name` keeps the lineages of different streams
/// (fleet entities and cohorts) apart in one directory. No-op when
/// checkpointing is off or the fit failed.
void save_checkpoint(FittedGeneration& g, const RetrainOptions& options,
                     const std::string& name);

/// The fit's dataset recipe, exposed so tests can reproduce bit-for-bit what
/// a generation was trained on: transform `frame` (target = column 0) with
/// `normalizer`, window it, split the windows chronologically 70/25/5 (the
/// 5 % tail is an unused test split). Also the shape donor for
/// Forecaster::restore.
models::ForecastDataset build_dataset(const data::TimeSeriesFrame& frame,
                                      const OnlineNormalizer& normalizer,
                                      const RetrainOptions& options);

/// Synchronous fit of one generation, not checkpointed. Throws nothing: a
/// failed fit is reported in outcome.error with forecaster/session left
/// null.
FittedGeneration fit_generation(const data::TimeSeriesFrame& frame,
                                const OnlineNormalizer& normalizer,
                                const RetrainOptions& options,
                                std::uint64_t next_generation,
                                std::string reason);

/// fit_generation with the max_valid_loss quality gate: retries with a
/// perturbed weight seed while the gate fails (up to fit_attempts fits) and
/// returns the lowest-valid-loss attempt, outcome.quality_rejected set when
/// even that one failed the gate. With the gate disabled this is exactly
/// one fit. Only the returned attempt is checkpointed (save_checkpoint
/// under `checkpoint_name`), and only when it passed: the file always holds
/// the weights outcome.checkpoint_path points at, never a losing retry's,
/// and a rejected generation leaves no checkpoint behind (an installer that
/// keeps it anyway, like a cohort bootstrap, saves it itself).
FittedGeneration fit_generation_gated(const data::TimeSeriesFrame& frame,
                                      const OnlineNormalizer& normalizer,
                                      const RetrainOptions& options,
                                      std::uint64_t next_generation,
                                      const std::string& reason,
                                      const std::string& checkpoint_name);

}  // namespace rptcn::stream
