#include "stream/retrain.h"

#include <algorithm>
#include <exception>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace rptcn::stream {

void RetrainOptions::validate() const {
  RPTCN_CHECK(history > window.window + window.horizon,
              "RetrainOptions.history must exceed window + horizon");
  RPTCN_CHECK(fit_attempts >= 1, "RetrainOptions.fit_attempts must be >= 1");
}

models::ForecastDataset build_dataset(const data::TimeSeriesFrame& frame,
                                      const OnlineNormalizer& normalizer,
                                      const RetrainOptions& options) {
  RPTCN_CHECK(frame.indicators() > 0, "build_dataset on an empty frame");
  const data::TimeSeriesFrame normalized = normalizer.transform(frame);
  const std::string& target = frame.name(0);

  const auto all = data::make_windows(normalized, target, options.window);
  // A retrain fits on recent history, so it spends more of it on training
  // than the paper's 6:2:2 batch split.
  auto split =
      data::chrono_split(all, /*train_frac=*/0.7, /*valid_frac=*/0.25);

  models::ForecastDataset ds;
  ds.train = std::move(split.train);
  ds.valid = std::move(split.valid);
  ds.test = std::move(split.test);
  ds.window = options.window.window;
  ds.horizon = options.window.horizon;
  ds.target_channel = 0;
  ds.target_series = normalized.column(target);
  ds.train_len = ds.train.samples() + options.window.window;
  ds.valid_len = ds.valid.samples();
  return ds;
}

void save_checkpoint(FittedGeneration& g, const RetrainOptions& options,
                     const std::string& name) {
  if (options.checkpoint_dir.empty() || g.forecaster == nullptr) return;
  const std::string path = options.checkpoint_dir + "/" + name + ".gen_" +
                           std::to_string(g.outcome.generation) + ".ckpt";
  g.outcome.checkpoint = g.forecaster->save(path);
  if (g.outcome.checkpoint == models::CheckpointStatus::kOk)
    g.outcome.checkpoint_path = path;
}

FittedGeneration fit_generation(const data::TimeSeriesFrame& frame,
                                const OnlineNormalizer& normalizer,
                                const RetrainOptions& options,
                                std::uint64_t next_generation,
                                std::string reason) {
  FittedGeneration g;
  g.outcome.reason = std::move(reason);
  g.outcome.generation = next_generation;
  Stopwatch watch;
  try {
    obs::TraceSpan span("stream/retrain");
    const models::ForecastDataset dataset =
        build_dataset(frame, normalizer, options);
    g.outcome.train_samples = dataset.train.samples();

    std::shared_ptr<models::Forecaster> forecaster =
        models::make_forecaster(options.model_name, options.model);
    forecaster->fit(dataset);
    const auto& valid_curve = forecaster->curves().valid_loss;
    if (!valid_curve.empty())
      g.outcome.valid_loss =
          *std::min_element(valid_curve.begin(), valid_curve.end());

    // The session co-owns the forecaster while it delegates, so the live
    // session can never outlive the model backing it.
    g.session = std::make_shared<serve::InferenceSession>(forecaster);
    g.forecaster = std::move(forecaster);
  } catch (const std::exception& e) {
    g.outcome.error = e.what();
    g.session.reset();
    g.forecaster.reset();
  }
  g.outcome.fit_seconds = watch.elapsed_seconds();
  return g;
}

FittedGeneration fit_generation_gated(const data::TimeSeriesFrame& frame,
                                      const OnlineNormalizer& normalizer,
                                      const RetrainOptions& options,
                                      std::uint64_t next_generation,
                                      const std::string& reason,
                                      const std::string& checkpoint_name) {
  const bool gated = options.max_valid_loss > 0.0;
  FittedGeneration best =
      fit_generation(frame, normalizer, options, next_generation, reason);
  double total_seconds = best.outcome.fit_seconds;
  std::size_t tried = 1;
  for (std::size_t attempt = 1;
       gated && attempt < options.fit_attempts &&
       (best.session == nullptr ||
        best.outcome.valid_loss > options.max_valid_loss);
       ++attempt) {
    RetrainOptions retry = options;
    retry.model.nn.seed += attempt;  // a different weight init basin
    FittedGeneration g =
        fit_generation(frame, normalizer, retry, next_generation, reason);
    total_seconds += g.outcome.fit_seconds;
    ++tried;
    if (g.session != nullptr &&
        (best.session == nullptr ||
         g.outcome.valid_loss < best.outcome.valid_loss))
      best = std::move(g);
  }
  best.outcome.fit_seconds = total_seconds;
  best.outcome.attempts = tried;
  best.outcome.quality_rejected =
      gated && best.session != nullptr &&
      best.outcome.valid_loss > options.max_valid_loss;
  if (!best.outcome.quality_rejected)
    save_checkpoint(best, options, checkpoint_name);
  return best;
}

}  // namespace rptcn::stream
