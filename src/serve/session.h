// InferenceSession: immutable, thread-safe inference over a fitted
// Forecaster.
//
// Construction copies the fitted net into a private, eval-mode
// nn::ForecastNet the session alone owns (ForecastNet::rebuild, then a
// parameter copy), so refitting the forecaster or overwriting its
// parameters later never changes what the session serves, and the session
// carries no reference back to it. run() replays a planned program for the
// input's [N, F, T] from a graph::PlanCache seeded by the tape compiler's
// forward-only entry (graph::compile_forward): the copy's forward is
// recorded on the first request of each shape, compiled, verified
// bit-for-bit against that eager forward, and cached. A shape whose program
// fails to compile or verify, and every run while planning is disabled
// (graph::set_planning_enabled(false)), runs the copy's eager forward
// instead, serialised by a mutex because a net's forward may write state
// (RPTCN records its attention weights).
//
// Batch invariance holds by construction: every kernel a net's forward runs
// sums each output in an order that does not depend on the batch size (the
// conv1d and linear GEMMs included), so each row of a coalesced batch is
// bit-identical to the unbatched (N=1) forward of that window, planned or
// eager.
//
// Non-tensor models (ARIMA, XGBoost) have no net to copy; for those the
// session delegates run() to the forecaster's own predict() behind the same
// mutex (their per-sample prediction loops are batch-invariant, so results
// still match the unbatched path bit-for-bit). Construct from a
// shared_ptr<Forecaster> and the session shares ownership of the delegate,
// so it can never dangle; with the reference constructor the forecaster
// must outlive the session.
//
// Hot-swap safety is structural: the plan cache lives and dies with its
// session, so installing a new session (a fleet retrain) brings a fresh
// cache and stale plans can never see new weights.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "graph/plan.h"
#include "nn/module.h"

namespace rptcn::models {
class Forecaster;
}

namespace rptcn::serve {

class InferenceSession {
 public:
  /// Copy a fitted forecaster (any registry model). Neural forecasters must
  /// have been fit() or restore()d first.
  explicit InferenceSession(models::Forecaster& forecaster);

  /// Same, but the session co-owns the forecaster while it delegates
  /// (non-tensor models) — the delegate cannot be freed under a live
  /// session no matter how the caller sequences teardown. Neural models
  /// release the forecaster immediately; the session's copy is
  /// self-contained.
  explicit InferenceSession(std::shared_ptr<models::Forecaster> forecaster);

  /// Direct copy of a network, for callers that own the net itself.
  explicit InferenceSession(const nn::ForecastNet& net);

  ~InferenceSession();
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Batched forward: inputs [N, F, T] -> predictions [N, horizon].
  /// Thread-safe. Each output row is bit-identical to the unbatched (N=1)
  /// autograd forward of the same window.
  Tensor run(const Tensor& inputs) const;

  /// The forecaster's name(); "net" for a session built from a bare net.
  const std::string& model_name() const { return name_; }
  /// Forecast steps per request; 0 when unknown (delegated models).
  std::size_t horizon() const { return horizon_; }
  /// Expected feature count F; 0 when unknown (delegated models).
  std::size_t input_features() const { return input_features_; }

 private:
  /// Take a private eval-mode copy of `net` and seed plans_ from it.
  void adopt(const nn::ForecastNet& net);
  /// Expected input shape for error messages: "[N, F, T]" plus the shapes
  /// already captured by the plan cache.
  std::string expected_shape() const;

  std::string name_ = "net";
  std::size_t horizon_ = 0;
  std::size_t input_features_ = 0;
  /// The session's frozen copy of the fitted net; null for delegated models.
  std::unique_ptr<nn::ForecastNet> net_;
  /// Shape-keyed planned executables; null for delegated models.
  std::unique_ptr<graph::PlanCache> plans_;
  models::Forecaster* delegate_ = nullptr;  ///< set iff net_ is null
  /// Keeps `delegate_` alive when constructed from a shared_ptr.
  std::shared_ptr<models::Forecaster> owner_;
  /// Serialises every eager forward of net_ (recordings included) and every
  /// delegated predict().
  mutable std::mutex eager_mutex_;
};

}  // namespace rptcn::serve
