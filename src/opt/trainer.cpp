#include "opt/trainer.h"

#include <algorithm>
#include <cstring>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rptcn::opt {

Tensor gather_rows(const Tensor& t, const std::vector<std::size_t>& index) {
  RPTCN_CHECK(t.rank() >= 2, "gather_rows expects rank >= 2");
  const std::size_t rows = t.dim(0);
  const std::size_t row_size = t.size() / rows;
  std::vector<std::size_t> shape = t.shape();
  shape[0] = index.size();
  Tensor out(shape);
  for (std::size_t i = 0; i < index.size(); ++i) {
    RPTCN_CHECK(index[i] < rows, "gather_rows index out of range");
    std::memcpy(out.raw() + i * row_size, t.raw() + index[i] * row_size,
                row_size * sizeof(float));
  }
  return out;
}

Variable apply_loss(const Variable& pred, const Tensor& target, Loss loss,
                    float pinball_tau) {
  switch (loss) {
    case Loss::kMse:
      return ag::mse_loss(pred, target);
    case Loss::kMae:
      return ag::mae_loss(pred, target);
    case Loss::kPinball:
      return ag::pinball_loss(pred, target, pinball_tau);
  }
  RPTCN_CHECK(false, "bad loss enum");
  return {};
}

double evaluate_loss(const ForwardFn& forward, const TrainData& data,
                     std::size_t batch_size, Loss loss, float pinball_tau) {
  RPTCN_CHECK(data.samples() > 0, "evaluate_loss on empty dataset");
  NoGradScope no_grad;
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t start = 0; start < data.samples(); start += batch_size) {
    const std::size_t end = std::min(start + batch_size, data.samples());
    std::vector<std::size_t> idx(end - start);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = start + i;
    const Variable x(gather_rows(data.inputs, idx));
    const Tensor y = gather_rows(data.targets, idx);
    const Variable pred = forward(x);
    const Variable l = apply_loss(pred, y, loss, pinball_tau);
    total += static_cast<double>(l.value().item()) *
             static_cast<double>(idx.size());
    count += idx.size();
  }
  return total / static_cast<double>(count);
}

double evaluate_mse(const ForwardFn& forward, const TrainData& data,
                    std::size_t batch_size) {
  return evaluate_loss(forward, data, batch_size, Loss::kMse);
}

namespace {

std::vector<std::pair<std::string, Tensor>> snapshot(const nn::Module& model) {
  std::vector<std::pair<std::string, Tensor>> snap;
  for (const auto& [name, p] : model.named_parameters())
    snap.emplace_back(name, p.value());
  return snap;
}

void restore(nn::Module& model,
             const std::vector<std::pair<std::string, Tensor>>& snap) {
  auto params = model.named_parameters();
  RPTCN_CHECK(params.size() == snap.size(), "snapshot size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i].second.mutable_value() = snap[i].second;
}

}  // namespace

TrainHistory fit(nn::Module& model, const ForwardFn& forward,
                 const TrainData& train, const TrainData& valid,
                 Adam& optimizer, const TrainOptions& options) {
  RPTCN_CHECK(train.samples() > 0, "empty training set");
  RPTCN_CHECK(valid.samples() > 0, "empty validation set");
  RPTCN_CHECK(options.batch_size > 0, "batch_size must be positive");

  // The observation path: caller-provided observers plus, while the obs
  // layer is live, the shared metrics sink. The empty-vector case costs one
  // branch per epoch.
  std::vector<EpochObserver*> observers = options.observers;
  if (obs::enabled()) observers.push_back(&metrics_observer());
  obs::TraceSpan fit_span("trainer/fit");
  Stopwatch fit_watch;

  Rng shuffle_rng(options.seed);
  EarlyStopping stopper(options.patience);
  TrainHistory history;
  std::vector<std::pair<std::string, Tensor>> best_snapshot;
  auto params = model.parameters();

  // Planned training step (ISSUE 8): when the factory produces an executor,
  // each batch goes through it; a declined batch falls back to the eager
  // sequence below, which is bit-identical by contract.
  std::shared_ptr<PlannedStep> planned;
  if (options.planned_step_factory)
    planned = options.planned_step_factory(model, forward, optimizer, options);

  for (std::size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    Stopwatch epoch_watch;
    model.set_training(true);
    const std::vector<std::size_t> order =
        shuffle_rng.permutation(train.samples());

    double epoch_loss = 0.0;
    std::size_t seen = 0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += options.batch_size) {
      const std::size_t end =
          std::min(start + options.batch_size, order.size());
      const std::vector<std::size_t> idx(order.begin() + start,
                                         order.begin() + end);
      const Tensor y = gather_rows(train.targets, idx);
      if (planned != nullptr) {
        float planned_loss = 0.0f;
        if (planned->step(gather_rows(train.inputs, idx), y, &planned_loss)) {
          epoch_loss += static_cast<double>(planned_loss) *
                        static_cast<double>(idx.size());
          seen += idx.size();
          ++batches;
          continue;
        }
      }
      const Variable x(gather_rows(train.inputs, idx));

      optimizer.zero_grad();
      const Variable pred = forward(x);
      Variable loss = apply_loss(pred, y, options.loss, options.pinball_tau);
      loss.backward();
      if (options.clip_norm > 0.0f)
        clip_grad_norm(params, options.clip_norm);
      optimizer.step();

      epoch_loss += static_cast<double>(loss.value().item()) *
                    static_cast<double>(idx.size());
      seen += idx.size();
      ++batches;
    }
    if (planned != nullptr) planned->on_epoch_end();
    history.train_loss.push_back(epoch_loss / static_cast<double>(seen));

    model.set_training(false);
    const double vloss = evaluate_loss(forward, valid,
                                       options.batch_size, options.loss,
                                       options.pinball_tau);
    history.valid_loss.push_back(vloss);

    const bool improved = stopper.update(vloss);
    if (improved) best_snapshot = snapshot(model);
    if (!observers.empty()) {
      EpochEvent event;
      event.epoch = epoch + 1;
      event.max_epochs = options.max_epochs;
      event.train_loss = history.train_loss.back();
      event.valid_loss = vloss;
      event.improved = improved;
      event.batches = batches;
      event.epoch_seconds = epoch_watch.elapsed_seconds();
      event.batches_per_second =
          event.epoch_seconds > 0.0
              ? static_cast<double>(batches) / event.epoch_seconds
              : 0.0;
      for (EpochObserver* observer : observers) observer->on_epoch(event);
    }
    if (stopper.should_stop()) {
      history.stopped_early = true;
      break;
    }
  }

  history.best_epoch = stopper.best_epoch();
  history.best_valid_loss = stopper.best_loss();
  if (!observers.empty()) {
    TrainEndEvent event;
    event.epochs_run = history.train_loss.size();
    event.best_epoch = history.best_epoch;
    event.best_valid_loss = history.best_valid_loss;
    event.stopped_early = history.stopped_early;
    event.fit_seconds = fit_watch.elapsed_seconds();
    for (EpochObserver* observer : observers) observer->on_train_end(event);
  }
  if (!best_snapshot.empty()) restore(model, best_snapshot);
  model.set_training(false);
  return history;
}

}  // namespace rptcn::opt
