#include "stream/retrain.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"

namespace rptcn::stream {

void RetrainOptions::validate() const {
  RPTCN_CHECK(history > window.window + window.horizon,
              "RetrainOptions.history must exceed window + horizon");
  RPTCN_CHECK(train_frac > 0.0 && valid_frac >= 0.0 &&
                  train_frac + valid_frac <= 1.0,
              "RetrainOptions.train_frac/valid_frac must satisfy "
              "0 < train_frac, 0 <= valid_frac, train_frac + valid_frac <= 1");
  RPTCN_CHECK(fit_attempts >= 1, "RetrainOptions.fit_attempts must be >= 1");
  RPTCN_CHECK(tenant.find_first_of("{}=") == std::string::npos,
              "RetrainOptions.tenant must not contain '{', '}' or '=': \""
                  << tenant << "\"");
}

models::ForecastDataset build_dataset(const data::TimeSeriesFrame& frame,
                                      const OnlineNormalizer& normalizer,
                                      const RetrainOptions& options) {
  RPTCN_CHECK(frame.indicators() > 0, "build_dataset on an empty frame");
  const data::TimeSeriesFrame normalized = normalizer.transform(frame);
  const std::string& target = frame.name(0);

  const auto all = data::make_windows(normalized, target, options.window);
  auto split =
      data::chrono_split(all, options.train_frac, options.valid_frac);

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

void save_checkpoint(FittedGeneration& g, const RetrainOptions& options) {
  if (options.checkpoint_dir.empty() || g.forecaster == nullptr) return;
  const std::string path = options.checkpoint_dir + "/gen_" +
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

    save_checkpoint(g, options);
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
                                      const std::string& reason) {
  if (options.max_valid_loss <= 0.0)
    return fit_generation(frame, normalizer, options, next_generation, reason);

  // Attempts fit without touching the per-generation checkpoint path: only
  // the winner is saved, below, so a losing retry can never overwrite a
  // better attempt's weights and gen_<N>.ckpt always matches
  // checkpoint_path's claim.
  RetrainOptions attempt_options = options;
  attempt_options.checkpoint_dir.clear();
  FittedGeneration best = fit_generation(frame, normalizer, attempt_options,
                                         next_generation, reason);

  const std::size_t attempts = std::max<std::size_t>(options.fit_attempts, 1);
  double total_seconds = best.outcome.fit_seconds;
  std::size_t tried = 1;
  for (std::size_t attempt = 1;
       attempt < attempts &&
       (best.session == nullptr ||
        best.outcome.valid_loss > options.max_valid_loss);
       ++attempt) {
    RetrainOptions retry = attempt_options;
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
      best.session != nullptr &&
      best.outcome.valid_loss > options.max_valid_loss;
  // A rejected generation is never installed by the retrainer, so it leaves
  // no gen_<N>.ckpt behind; installers that keep it anyway (bootstrap)
  // checkpoint it themselves.
  if (!best.outcome.quality_rejected) save_checkpoint(best, options);
  return best;
}

RollingRetrainer::RollingRetrainer(serve::BatchingEngine& engine,
                                   RetrainOptions options)
    : engine_(engine),
      options_(std::move(options)),
      retrains_counter_(
          obs::metrics().counter("stream/retrains_total", options_.tenant)),
      failures_counter_(obs::metrics().counter("stream/retrain_failures_total",
                                               options_.tenant)),
      swap_aborts_counter_(
          obs::metrics().counter("stream/swap_aborts_total", options_.tenant)),
      retrain_seconds_(
          obs::metrics().histogram("stream/retrain_seconds", options_.tenant)),
      generation_gauge_(
          obs::metrics().gauge("stream/generation", options_.tenant)),
      pool_(1) {
  options_.validate();
}

RollingRetrainer::~RollingRetrainer() {
  // pool_ is declared last, so its destructor (which drains the queued job)
  // runs before any other member goes away; nothing else to do here.
}

bool RollingRetrainer::request(data::TimeSeriesFrame history,
                               OnlineNormalizer normalizer, std::string reason,
                               std::size_t tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (inflight_.valid() &&
      inflight_.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready)
    return false;
  if (has_trigger_ && tick - last_trigger_tick_ < options_.min_ticks_between)
    return false;
  has_trigger_ = true;
  last_trigger_tick_ = tick;
  inflight_ = pool_.submit([this, frame = std::move(history),
                            norm = std::move(normalizer),
                            why = std::move(reason)]() mutable {
    run_job(std::move(frame), std::move(norm), std::move(why));
  });
  return true;
}

bool RollingRetrainer::busy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_.valid() && inflight_.wait_for(std::chrono::seconds(0)) !=
                                  std::future_status::ready;
}

void RollingRetrainer::wait_idle() {
  std::future<void> waiting;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!inflight_.valid()) return;
    waiting = std::move(inflight_);
  }
  waiting.get();
}

RetrainOutcome RollingRetrainer::last() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_outcome_;
}

std::uint64_t RollingRetrainer::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

std::uint64_t RollingRetrainer::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

void RollingRetrainer::run_job(data::TimeSeriesFrame history,
                               OnlineNormalizer normalizer,
                               std::string reason) {
  FittedGeneration g = fit_generation_gated(history, normalizer, options_,
                                            engine_.generation() + 1, reason);
  retrain_seconds_.record(g.outcome.fit_seconds);
  retrains_counter_.add(1);

  if (g.session == nullptr) {
    failures_counter_.add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    ++failures_;
    last_outcome_ = g.outcome;
    return;
  }

  // Quality gate: every attempt validated worse than max_valid_loss. The
  // incumbent keeps serving — if it is genuinely stale the detectors fire
  // again and the next trailing window gets a fresh chance.
  if (g.outcome.quality_rejected) {
    swap_aborts_counter_.add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    last_outcome_ = g.outcome;
    return;
  }

  // A checkpoint that should exist but could not be written aborts the
  // swap: the live model must never get ahead of its restorable state.
  const bool checkpoint_failed =
      !options_.checkpoint_dir.empty() &&
      g.outcome.checkpoint != models::CheckpointStatus::kOk &&
      g.outcome.checkpoint != models::CheckpointStatus::kUnsupported;
  if (checkpoint_failed) {
    swap_aborts_counter_.add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++completed_;
    last_outcome_ = g.outcome;
    return;
  }

  {
    obs::TraceSpan span("stream/swap");
    g.outcome.generation = engine_.swap_session(g.session);
    // Fence: once flush() returns, every request submitted before the swap
    // has been delivered — readers finished on the old generation, whose
    // session (and, for delegated models, the forecaster it co-owns) is
    // then released by the last shared_ptr holder.
    engine_.flush();
  }
  g.outcome.swapped = true;
  generation_gauge_.set(static_cast<double>(g.outcome.generation));
  // The retired generation's planned executors strand their worst-case
  // scratch in this thread's pool buckets (training tapes, capture arenas).
  // Shrink the cache to half its bound so long-running pipelines do not
  // accumulate one dead high-water mark per swap.
  pool::trim(pool::kMaxCachedBytes / 2);

  std::lock_guard<std::mutex> lock(mutex_);
  ++completed_;
  last_outcome_ = g.outcome;
}

}  // namespace rptcn::stream
