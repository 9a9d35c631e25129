// Rolling retrain: background re-fit on the trailing window, then atomic
// hot-swap into the live serving engine.
//
// The retrainer owns a one-thread common::ThreadPool. request() copies the
// caller's trailing history frame and normalizer state into the job and
// returns immediately — the ingest path never waits on training. The job
// builds a supervised dataset (build_dataset, the same
// transform -> window -> chronological-split recipe as the batch pipeline),
// fits a fresh registry forecaster with the opt:: trainer (EpochObserver
// hooks attach as everywhere else), snapshots it into an InferenceSession,
// writes a per-generation weight checkpoint, and swap_session()s the result
// into the BatchingEngine followed by flush() — after the swap is reported,
// every new submit is answered by the new weights, while batches that were
// already coalesced finished on their old generation.
//
// Failure containment: a fit that throws marks the outcome failed and
// leaves the engine serving the previous generation. A checkpoint save that
// fails (kIoError/kShapeMismatch) aborts the swap and propagates the
// CheckpointStatus through RetrainOutcome — the live model and the on-disk
// state never diverge. kUnsupported (ARIMA/XGBoost) still swaps: those
// models have no weight checkpoints and are cheap to refit.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/thread_pool.h"
#include "data/windowing.h"
#include "models/registry.h"
#include "serve/engine.h"
#include "stream/normalizer.h"

namespace rptcn::stream {

struct RetrainOptions {
  std::string model_name = "LSTM";   ///< any models::make_forecaster name
  models::ModelConfig model;         ///< architecture + training recipe
  std::size_t history = 512;         ///< trailing ticks to fit on
  data::WindowOptions window;        ///< supervised window/horizon/stride
  double train_frac = 0.7;           ///< chronological split of the windows
  double valid_frac = 0.25;          ///< (remainder is an unused test tail)
  std::size_t min_ticks_between = 64;  ///< cooldown between triggers
  std::string checkpoint_dir;        ///< per-generation weights ("" = none)
  /// Quality gate: a fit whose best validation loss (normalised units)
  /// exceeds this is retried with a perturbed weight seed, and if every
  /// attempt fails the gate the swap is refused — the incumbent keeps
  /// serving and the drift detectors re-trigger if it is genuinely stale.
  /// Fixed-seed training occasionally early-stops in a bad basin on one
  /// trailing window (an order of magnitude above its neighbours' loss);
  /// shipping such a generation costs far more than one extra fit. 0 = off.
  double max_valid_loss = 0.0;
  std::size_t fit_attempts = 2;      ///< total tries while the gate fails
  /// Metrics tenant label for the stream/retrain* series and the generation
  /// gauge (empty keeps the historical unlabeled names).
  std::string tenant;

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

struct RetrainOutcome {
  std::uint64_t generation = 0;      ///< engine generation after the swap
  bool swapped = false;
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

/// Write `g`'s weights to `<checkpoint_dir>/gen_<outcome.generation>.ckpt`,
/// recording status and path in `g.outcome`. No-op when checkpointing is
/// off or the fit failed.
void save_checkpoint(FittedGeneration& g, const RetrainOptions& options);

/// The retrainer's dataset recipe, exposed so tests (and the bootstrap fit)
/// can reproduce bit-for-bit what a generation was trained on: transform
/// `frame` (target = column 0) with `normalizer`, window it, split
/// chronologically. Also the shape donor for Forecaster::restore.
models::ForecastDataset build_dataset(const data::TimeSeriesFrame& frame,
                                      const OnlineNormalizer& normalizer,
                                      const RetrainOptions& options);

/// Synchronous fit of one generation (the bootstrap path and the body of
/// every background retrain). Throws nothing: a failed fit is reported in
/// outcome.error with forecaster/session left null.
FittedGeneration fit_generation(const data::TimeSeriesFrame& frame,
                                const OnlineNormalizer& normalizer,
                                const RetrainOptions& options,
                                std::uint64_t next_generation,
                                std::string reason);

/// fit_generation with the max_valid_loss quality gate: retries with a
/// perturbed weight seed while the gate fails (up to fit_attempts fits) and
/// returns the lowest-valid-loss attempt, outcome.quality_rejected set when
/// even that one failed the gate. With the gate disabled this is exactly
/// one fit_generation call. Under the gate only the winning attempt is
/// checkpointed, and only when it passed — gen_<N>.ckpt always holds the
/// weights outcome.checkpoint_path points at, never a losing retry's, and
/// a rejected generation leaves no checkpoint behind (callers that install
/// one anyway, like the bootstrap, save_checkpoint it themselves).
FittedGeneration fit_generation_gated(const data::TimeSeriesFrame& frame,
                                      const OnlineNormalizer& normalizer,
                                      const RetrainOptions& options,
                                      std::uint64_t next_generation,
                                      const std::string& reason);

class RollingRetrainer {
 public:
  /// The engine must outlive the retrainer.
  RollingRetrainer(serve::BatchingEngine& engine, RetrainOptions options);
  /// Waits for an in-flight retrain to finish (swap included).
  ~RollingRetrainer();
  RollingRetrainer(const RollingRetrainer&) = delete;
  RollingRetrainer& operator=(const RollingRetrainer&) = delete;

  /// Schedule a background retrain on `history` (trailing raw ticks, target
  /// = column 0) under `normalizer`'s current state. Returns false — and
  /// does nothing — while a retrain is in flight or the cooldown since the
  /// last accepted trigger has not elapsed (`tick` is the caller's tick
  /// counter, the cooldown clock).
  bool request(data::TimeSeriesFrame history, OnlineNormalizer normalizer,
               std::string reason, std::size_t tick);

  /// A retrain is running (or queued) right now.
  bool busy() const;
  /// Block until the in-flight retrain (if any) completed and swapped.
  void wait_idle();

  /// Outcome of the most recently *finished* retrain (default before any).
  RetrainOutcome last() const;
  std::uint64_t completed() const;
  std::uint64_t failures() const;

  const RetrainOptions& options() const { return options_; }

 private:
  void run_job(data::TimeSeriesFrame history, OnlineNormalizer normalizer,
               std::string reason);

  serve::BatchingEngine& engine_;
  RetrainOptions options_;

  // Registry handles are process-lifetime stable; resolved once here.
  obs::Counter& retrains_counter_;
  obs::Counter& failures_counter_;
  obs::Counter& swap_aborts_counter_;
  obs::Histogram& retrain_seconds_;
  obs::Gauge& generation_gauge_;

  mutable std::mutex mutex_;
  std::future<void> inflight_;
  bool has_trigger_ = false;
  std::size_t last_trigger_tick_ = 0;
  RetrainOutcome last_outcome_;
  std::uint64_t completed_ = 0;
  std::uint64_t failures_ = 0;

  ThreadPool pool_;  ///< one worker; declared last so jobs see live members
};

}  // namespace rptcn::stream
