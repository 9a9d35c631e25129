// Mini-batch trainer: the paper's training loop (Adam + MSE + EarlyStopping
// with patience 10), generic over any Module with a [N,F,T] -> [N,horizon]
// forward function.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/module.h"
#include "opt/early_stopping.h"
#include "opt/observer.h"
#include "opt/optimizer.h"

namespace rptcn::opt {

/// Supervised windows: inputs [S, F, T], targets [S, horizon].
struct TrainData {
  Tensor inputs;
  Tensor targets;

  std::size_t samples() const { return inputs.empty() ? 0 : inputs.dim(0); }
};

/// Training objective. kPinball turns the network into a tau-quantile
/// forecaster (capacity-planning extension).
enum class Loss { kMse, kMae, kPinball };

/// Forward function type: batched inputs -> predictions.
using ForwardFn = std::function<Variable(const Variable&)>;

struct TrainOptions;

/// One fully-fused optimisation step: forward, loss, backward, clip and
/// optimizer update in a single call. Implementations (graph::TrainStep)
/// capture the tape into a planned program and replay it; the contract is
/// bit-identical losses and weights vs the eager loop in fit().
class PlannedStep {
 public:
  virtual ~PlannedStep() = default;
  /// Run one step on batch (x [N,F,T], y [N,horizon]). Returns false if the
  /// step could not run at all (the caller then runs the eager path for this
  /// batch); on success writes the batch loss to *loss_out.
  virtual bool step(Tensor x, const Tensor& y, float* loss_out) = 0;
  /// End-of-epoch housekeeping (arena reuse stats, buffer-pool trims).
  virtual void on_epoch_end() {}
};

/// Builds the PlannedStep for one fit() call, or nullptr to train eagerly
/// (e.g. when planning is disabled or the optimizer does not hold exactly
/// the model's parameters).
using PlannedStepFactory = std::function<std::shared_ptr<PlannedStep>(
    nn::Module& model, const ForwardFn& forward, Adam& optimizer,
    const TrainOptions& options)>;

struct TrainOptions {
  Loss loss = Loss::kMse;
  float pinball_tau = 0.9f;        ///< only used with Loss::kPinball
  std::size_t batch_size = 32;
  std::size_t max_epochs = 40;
  std::size_t patience = 10;       ///< EarlyStopping patience (paper value 10)
  float clip_norm = 0.0f;          ///< 0 disables gradient clipping
  std::uint64_t seed = 7;          ///< batch-shuffle stream
  /// Per-epoch callbacks (borrowed; must outlive fit()). Add a
  /// LoggingObserver for the historical `verbose` output. While
  /// obs::enabled(), fit() additionally notifies the shared MetricsObserver
  /// whether or not it appears here.
  std::vector<EpochObserver*> observers;
  /// Optional planned training step (ISSUE 8). Invoked once at the start of
  /// fit(); when it returns non-null, each batch goes through
  /// PlannedStep::step instead of the eager forward/backward/clip/step
  /// sequence (falling back per batch when step() declines). Wired by
  /// models::NetForecaster::fit; bit-identical loss curves are part of the
  /// contract, enforced by the implementation's replay self-check.
  PlannedStepFactory planned_step_factory;
};

struct TrainHistory {
  std::vector<double> train_loss;  ///< mean training MSE per epoch
  std::vector<double> valid_loss;  ///< validation MSE per epoch
  std::size_t best_epoch = 0;      ///< 1-based epoch of best validation loss
  double best_valid_loss = 0.0;
  bool stopped_early = false;
};

/// Gather rows `index[...]` of a [S, ...] tensor into a new batch tensor.
Tensor gather_rows(const Tensor& t, const std::vector<std::size_t>& index);

/// The trainer's loss dispatch, shared with PlannedStep implementations so
/// the captured objective is the very op sequence fit() would run.
Variable apply_loss(const Variable& pred, const Tensor& target, Loss loss,
                    float pinball_tau);

/// Mean MSE of `forward` over a dataset (no gradients, eval mode is the
/// caller's responsibility).
double evaluate_mse(const ForwardFn& forward, const TrainData& data,
                    std::size_t batch_size);

/// Mean loss of `forward` over a dataset under an arbitrary objective.
double evaluate_loss(const ForwardFn& forward, const TrainData& data,
                     std::size_t batch_size, Loss loss,
                     float pinball_tau = 0.9f);

/// Train `model` on `train`, early-stopping on `valid`: every epoch visits
/// the training windows in a fresh shuffled order, and the weights of the
/// best-validation epoch are restored at the end.
TrainHistory fit(nn::Module& model, const ForwardFn& forward,
                 const TrainData& train, const TrainData& valid,
                 Adam& optimizer, const TrainOptions& options);

}  // namespace rptcn::opt
