#include "fleet/manager.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "trace/indicators.h"

namespace rptcn::fleet {

namespace {

/// Validation hook for the member-initializer list.
FleetOptions validated(FleetOptions options) {
  options.validate();
  return options;
}

/// Kept feature names: the explicit list, or all eight in Table-I order.
std::vector<std::string> resolve_features(const FleetOptions& options) {
  if (!options.features.empty()) return options.features;
  const auto& all = trace::indicator_names();
  return {all.begin(), all.end()};
}

/// Per-shard tenant label: "<tenant>/shard<k>" ("shard<k>" when the fleet
/// tenant is empty).
std::string shard_tenant_label(const std::string& tenant, std::size_t shard) {
  std::ostringstream out;
  if (!tenant.empty()) out << tenant << "/";
  out << "shard" << shard;
  return out.str();
}

stream::DriftOptions shard_drift_options(const FleetOptions& options,
                                         std::size_t shard) {
  stream::DriftOptions d = options.drift;
  d.tenant = shard_tenant_label(options.tenant, shard);
  return d;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Entity
// ---------------------------------------------------------------------------

FleetManager::Entity::Entity(EntitySpec s, std::size_t shard_index,
                             const std::vector<std::string>& features,
                             const FleetOptions& options)
    : spec(std::move(s)),
      shard(shard_index),
      channel(features, options.channel),
      drift(features, shard_drift_options(options, shard_index)) {
  norm_row.resize(features.size(), 0.0);
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

FleetManager::FleetManager(FleetOptions options)
    : options_(validated(std::move(options))),
      features_(resolve_features(options_)),
      ticks_counter_(
          obs::metrics().counter("fleet/ticks_total", options_.tenant)),
      dropped_counter_(
          obs::metrics().counter("fleet/ticks_dropped", options_.tenant)),
      rejected_counter_(
          obs::metrics().counter("fleet/ticks_rejected", options_.tenant)),
      forecasts_counter_(
          obs::metrics().counter("fleet/forecasts_total", options_.tenant)),
      forecast_failures_counter_(obs::metrics().counter(
          "fleet/forecast_failures_total", options_.tenant)),
      drift_counter_(
          obs::metrics().counter("fleet/drift_events", options_.tenant)),
      retrains_counter_(
          obs::metrics().counter("fleet/retrains_total", options_.tenant)),
      retrain_failures_counter_(obs::metrics().counter(
          "fleet/retrain_failures_total", options_.tenant)),
      tick_latency_hist_(obs::metrics().histogram(
          "fleet/tick_to_forecast_seconds", options_.tenant)),
      retrain_seconds_(
          obs::metrics().histogram("fleet/retrain_seconds", options_.tenant)),
      entities_gauge_(
          obs::metrics().gauge("fleet/entities", options_.tenant)),
      queue_depth_gauge_(
          obs::metrics().gauge("fleet/queue_depth", options_.tenant)),
      unique_snapshots_gauge_(
          obs::metrics().gauge("fleet/unique_snapshots", options_.tenant)) {
  engines_.reserve(options_.shards);
  for (std::size_t k = 0; k < options_.shards; ++k) {
    serve::EngineOptions eo = options_.engine;
    eo.tenant = shard_tenant_label(options_.tenant, k);
    eo.max_delay_us = 0;  // workers send whole waves; nothing to wait for
    engines_.push_back(std::make_unique<serve::BatchingEngine>(eo));
  }
  SchedulerOptions so;
  so.workers = options_.retrain_workers;
  so.tenant = options_.tenant;
  scheduler_ = std::make_unique<RetrainScheduler>(
      so, [this](const RetrainRequest& r) { retrain_entity(r); });
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

FleetManager::~FleetManager() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Members tear down in reverse declaration order: the scheduler first
  // (finishing in-flight fits while entities_ and engines_ are alive),
  // then entities_, then the shard engines drain.
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void FleetManager::add_entity(EntitySpec spec) {
  if (spec.cohort.empty()) spec.cohort = spec.id;
  spec.validate();
  const std::size_t shard = shard_of(spec.id);
  auto entity = std::make_unique<Entity>(std::move(spec), shard, features_,
                                         options_);
  std::lock_guard<std::mutex> lock(mutex_);
  RPTCN_CHECK(entities_.find(entity->spec.id) == entities_.end(),
              "duplicate entity id: " << entity->spec.id);
  // Late joiner of a bootstrapped cohort: share the cohort session at
  // once. The entity is not yet visible to workers, so its state fields
  // are safe to touch without state_mutex.
  auto cohort_it = cohort_sessions_.find(entity->spec.cohort);
  if (cohort_it != cohort_sessions_.end()) {
    entity->session = cohort_it->second;
    entity->generation = 1;
    entity->shares_cohort_session = true;
  }
  entities_.emplace(entity->spec.id, std::move(entity));
  entities_gauge_.set(static_cast<double>(entities_.size()));
}

stream::RetrainOutcome FleetManager::bootstrap_cohort(
    const std::string& cohort, const data::TimeSeriesFrame& frame,
    bool seed_history) {
  std::vector<Entity*> members;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, e] : entities_)
      if (e->spec.cohort == cohort) members.push_back(e.get());
  }
  RPTCN_CHECK(!members.empty(),
              "bootstrap_cohort: no entities in cohort \"" << cohort << "\"");

  // A scratch channel replays the frame once, producing exactly the
  // cleaned history + normalizer state every seeded member ends up with.
  stream::IngestChannel scratch(features_, options_.channel);
  scratch.replay(frame);
  const std::size_t retained =
      std::min(scratch.ticks(), options_.channel.capacity);
  const std::size_t span = std::min(options_.retrain.history, retained);

  const stream::RetrainOptions opts =
      retrain_options_for(members.front()->spec);
  stream::FittedGeneration g;
  {
    obs::ScopedTimer timer(retrain_seconds_);
    g = stream::fit_generation_gated(scratch.history(span),
                                     scratch.normalizer(), opts,
                                     /*next_generation=*/1,
                                     "bootstrap:" + cohort, cohort);
  }
  if (g.session == nullptr) {
    retrains_failed_.fetch_add(1, std::memory_order_relaxed);
    retrain_failures_counter_.add(1);
    return g.outcome;
  }
  // A gate-rejected bootstrap is still installed — some model must serve,
  // and drift retraining replaces a mediocre one later. The gated fit only
  // checkpoints passing generations, so save this one here: every serving
  // generation has a restorable checkpoint.
  if (g.outcome.quality_rejected) stream::save_checkpoint(g, opts, cohort);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    cohort_sessions_[cohort] = g.session;
  }
  for (Entity* e : members) {
    std::lock_guard<std::mutex> state(e->state_mutex);
    if (seed_history) e->channel.replay(frame);
    if (e->generation == 0) {
      e->session = g.session;
      e->generation = 1;
      e->shares_cohort_session = true;
      e->last_retrain_tick = e->channel.ticks();
    }
    if (options_.freeze_normalizer_at_bootstrap)
      e->channel.freeze_normalizer();
  }
  return g.outcome;
}

std::vector<std::string> FleetManager::entity_ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(entities_.size());
  for (const auto& [id, e] : entities_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---------------------------------------------------------------------------
// Ingest / mailbox pool
// ---------------------------------------------------------------------------

Admission FleetManager::ingest(const std::string& entity,
                               std::vector<double> row) {
  RPTCN_CHECK(row.size() == features_.size(),
              "ingest row for \"" << entity << "\" carries " << row.size()
                                  << " values, fleet has "
                                  << features_.size() << " features");
  const auto now = std::chrono::steady_clock::now();
  bool notify = false;
  Admission verdict = Admission::kAccepted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      verdict = Admission::kStopped;
    } else {
      auto it = entities_.find(entity);
      if (it == entities_.end()) {
        verdict = Admission::kUnknownEntity;
      } else {
        Entity& e = *it->second;
        if (queued_ticks_ >= options_.max_queued_ticks) {
          verdict = Admission::kQueueFull;
          ++e.rejected;
        } else if (e.backlog.size() >= options_.max_entity_backlog) {
          verdict = Admission::kBacklogFull;
          ++e.rejected;
        } else {
          e.backlog.push_back(QueuedTick{std::move(row), now});
          ++queued_ticks_;
          queue_depth_gauge_.set(static_cast<double>(queued_ticks_));
          if (!e.scheduled) {
            e.scheduled = true;
            ready_.push_back(&e);
            notify = true;
          }
        }
      }
    }
  }
  if (verdict == Admission::kAccepted) {
    if (notify) work_cv_.notify_one();
  } else {
    ticks_rejected_.fetch_add(1, std::memory_order_relaxed);
    rejected_counter_.add(1);
  }
  return verdict;
}

void FleetManager::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock,
                 [this] { return queued_ticks_ == 0 && processing_ == 0; });
}

void FleetManager::worker_loop() {
  // A claim: the mailboxes this worker owns, each with the ticks it took.
  std::vector<std::pair<Entity*, std::deque<QueuedTick>>> claim;
  std::vector<InFlightTick> wave;
  for (;;) {
    claim.clear();
    std::size_t waves = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
      if (ready_.empty()) {
        // stop_ must be set (the predicate held) — drained, exit.
        return;
      }
      // Up to one engine batch of mailboxes at once, so the forecasts one
      // wave submits can coalesce into shared forwards.
      while (!ready_.empty() && claim.size() < options_.engine.max_batch) {
        Entity* e = ready_.front();
        ready_.pop_front();
        std::deque<QueuedTick>& ticks =
            claim.emplace_back(e, std::deque<QueuedTick>{}).second;
        ticks.swap(e->backlog);
        queued_ticks_ -= ticks.size();
        waves = std::max(waves, ticks.size());
      }
      queue_depth_gauge_.set(static_cast<double>(queued_ticks_));
      processing_ += claim.size();
    }
    // Wave k ingests the k-th tick of every claimed mailbox, hands their
    // forecasts to the engines, then waits for all of them: each entity's
    // tick k is delivered before its tick k + 1 is ingested, so per-entity
    // order is what it was with one tick at a time. One state_mutex at a
    // time, none while waiting.
    for (std::size_t k = 0; k < waves; ++k) {
      wave.clear();
      for (auto& [e, ticks] : claim)
        if (k < ticks.size())
          if (std::optional<InFlightTick> t = prepare_tick(*e, ticks[k]))
            wave.push_back(std::move(*t));
      submit_wave(wave);
      for (InFlightTick& t : wave) deliver_tick(t);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      processing_ -= claim.size();
      for (auto& [e, ticks] : claim) {
        if (!e->backlog.empty()) {
          // Refilled while we processed: back in line (scheduled stays set
          // — the entity is owned by the queue again, never by two
          // workers).
          ready_.push_back(e);
          work_cv_.notify_one();
        } else {
          e->scheduled = false;
        }
      }
      if (queued_ticks_ == 0 && processing_ == 0) drain_cv_.notify_all();
    }
  }
}

std::optional<FleetManager::InFlightTick> FleetManager::prepare_tick(
    Entity& e, const QueuedTick& tick) {
  std::lock_guard<std::mutex> state(e.state_mutex);
  if (!e.channel.ingest(tick.row)) {
    ticks_dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_counter_.add(1);
    return std::nullopt;
  }
  ticks_accepted_.fetch_add(1, std::memory_order_relaxed);
  ticks_counter_.add(1);

  bool drift_fired = harvest_due(e);

  if (e.session != nullptr) {
    for (std::size_t f = 0; f < e.norm_row.size(); ++f)
      e.norm_row[f] = e.channel.latest_norm(f);
    if (e.drift.observe_inputs(e.norm_row)) drift_fired = true;
  }
  if (drift_fired) latch_drift(e);

  InFlightTick t;
  t.entity = &e;
  t.accepted_at = tick.accepted_at;
  const std::size_t window = options_.retrain.window.window;
  if (e.session != nullptr && e.channel.ready(window)) {
    t.generation = e.generation;
    t.tick = e.channel.ticks();
    t.due_provider_tick = e.channel.ticks() + e.channel.dropped() + 1;
    t.request.window = e.channel.latest_window(window);
    t.request.session = e.session;
  }
  return t;
}

void FleetManager::submit_wave(std::vector<InFlightTick>& wave) {
  std::vector<serve::WaveRequest> requests;
  std::vector<InFlightTick*> owners;
  for (std::size_t shard = 0; shard < engines_.size(); ++shard) {
    requests.clear();
    owners.clear();
    for (InFlightTick& t : wave)
      if (t.request.session != nullptr && t.entity->shard == shard) {
        requests.push_back(std::move(t.request));
        owners.push_back(&t);
      }
    if (owners.empty()) continue;
    try {
      std::vector<std::future<Tensor>> futures =
          engines_[shard]->submit_wave(std::move(requests));
      for (std::size_t i = 0; i < owners.size(); ++i)
        owners[i]->forecast = std::move(futures[i]);
    } catch (const std::exception&) {
      // The engine enqueued none of them: these ticks simply have no
      // forecast.
      forecast_failures_.fetch_add(owners.size(), std::memory_order_relaxed);
      forecast_failures_counter_.add(owners.size());
    }
  }
}

void FleetManager::deliver_tick(InFlightTick& t) {
  std::optional<double> predicted_norm;
  if (t.forecast.valid()) {
    try {
      predicted_norm = static_cast<double>(t.forecast.get().raw()[0]);
    } catch (const std::exception&) {
      // The batch failure was delivered to every future; this entity's
      // tick simply has no forecast.
      forecast_failures_.fetch_add(1, std::memory_order_relaxed);
      forecast_failures_counter_.add(1);
    }
  }
  Entity& e = *t.entity;
  std::lock_guard<std::mutex> state(e.state_mutex);
  if (predicted_norm.has_value()) {
    // A retrain that installed while this forward was in flight already
    // discarded the old generation's residual: the forecast still counts,
    // tagged with the generation that made it, but is never scored.
    if (t.generation == e.generation) {
      Entity::PendingForecast p;
      p.predicted_norm = *predicted_norm;
      p.due_provider_tick = t.due_provider_tick;
      p.generation = t.generation;
      e.pending = p;
    }
    // Only the claiming worker ingests into the channel, so its normalizer
    // is still the one the forecast was submitted under.
    EntityForecast f;
    f.entity = e.spec.id;
    f.predicted_norm = *predicted_norm;
    f.predicted_raw = e.channel.normalizer().denormalize(0, *predicted_norm);
    f.generation = t.generation;
    f.tick = t.tick;
    e.last_forecast = std::move(f);
    ++e.forecasts;
    forecasts_.fetch_add(1, std::memory_order_relaxed);
    forecasts_counter_.add(1);
    const double latency = seconds_since(t.accepted_at);
    tick_latency_hist_.record(latency);
    std::lock_guard<std::mutex> lock(latency_mutex_);
    latencies_.push_back(latency);
  }
  // Filed only once the forecast is recorded, so a fit never runs ahead of
  // the tick that asked for it. A latch that aged out of the cooldown since
  // it was caught is filed here too.
  request_latched_retrain(e);
}

bool FleetManager::harvest_due(Entity& e) {
  if (!e.pending.has_value()) return false;
  const std::size_t now = e.channel.ticks() + e.channel.dropped();
  if (e.pending->due_provider_tick > now) return false;
  const Entity::PendingForecast p = *e.pending;
  e.pending.reset();
  // The targeted tick was dropped: no ground truth, discard (the residual
  // stream stays strictly one-step).
  if (p.due_provider_tick < now) return false;
  const double actual = e.channel.latest_norm(0);
  const double residual = std::abs(actual - p.predicted_norm);
  e.last_residual = residual;
  e.residual_sum += residual;
  ++e.residuals_scored;
  // A predecessor generation's residual must not seed the freshly reset
  // detectors with the old model's error regime.
  if (p.generation != e.generation) return false;
  return e.drift.observe_residual(residual);
}

// ---------------------------------------------------------------------------
// Elastic retraining
// ---------------------------------------------------------------------------

double FleetManager::drift_severity(const stream::DriftMonitor& drift,
                                    const stream::DriftOptions& options) {
  // How far past its threshold the loudest detector sits; >= 1 whenever a
  // detector just fired, and larger for harder drift — the scheduler
  // priority, so the worst-drifted entities win fit slots.
  double severity = 1.0;
  if (options.residual_ph.lambda > 0.0)
    severity = std::max(severity, drift.residual_detector().last_statistic() /
                                      options.residual_ph.lambda);
  if (options.windowed.ratio_threshold > 0.0)
    severity = std::max(severity, drift.windowed_monitor().last_ratio() /
                                      options.windowed.ratio_threshold);
  return severity;
}

void FleetManager::latch_drift(Entity& e) {
  ++e.drift_events;
  drift_events_.fetch_add(1, std::memory_order_relaxed);
  drift_counter_.add(1);
  if (!options_.retrain_on_drift || e.session == nullptr) return;
  // Latch first: the fire survives even when the cooldown or an in-flight
  // fit blocks the request right now. A louder fire raises the latched
  // severity (and takes over the reason) while a quieter repeat cannot
  // demote it.
  const double severity = drift_severity(e.drift, options_.drift);
  if (severity >= e.latched_severity) {
    e.latched_severity = severity;
    e.latched_reason = e.drift.last_reason();
  }
}

void FleetManager::request_latched_retrain(Entity& e) {
  if (e.latched_severity <= 0.0) return;
  if (!options_.retrain_on_drift || e.session == nullptr) return;
  if (e.retrain_inflight) return;
  if (e.channel.ticks() - e.last_retrain_tick <
      options_.retrain.min_ticks_between)
    return;
  RetrainRequest r;
  r.entity = e.spec.id;
  r.priority = e.latched_severity;
  r.reason = e.latched_reason;
  if (scheduler_->request(std::move(r))) {
    e.retrain_inflight = true;
    e.last_retrain_tick = e.channel.ticks();
    e.latched_severity = 0.0;
    e.latched_reason.clear();
  }
}

stream::RetrainOptions FleetManager::retrain_options_for(
    const EntitySpec& spec) const {
  stream::RetrainOptions opt = options_.retrain;
  opt.model_name = spec.model.name;
  opt.model = spec.model.config;
  return opt;
}

void FleetManager::retrain_entity(const RetrainRequest& r) {
  Entity* e = find_entity(r.entity);
  if (e == nullptr) return;

  data::TimeSeriesFrame history;
  stream::OnlineNormalizer normalizer;
  std::uint64_t next_generation = 0;
  {
    std::lock_guard<std::mutex> state(e->state_mutex);
    const std::size_t retained =
        std::min(e->channel.ticks(), options_.channel.capacity);
    const std::size_t span = std::min(options_.retrain.history, retained);
    if (span <= options_.retrain.window.window +
                    options_.retrain.window.horizon) {
      // Not enough history for one supervised sample; the detectors will
      // re-trigger once there is.
      e->retrain_inflight = false;
      return;
    }
    history = e->channel.history(span);
    normalizer = e->channel.normalizer();
    next_generation = e->generation + 1;
  }

  const stream::RetrainOptions opts = retrain_options_for(e->spec);
  stream::FittedGeneration g;
  {
    obs::ScopedTimer timer(retrain_seconds_);
    g = stream::fit_generation_gated(history, normalizer, opts,
                                     next_generation, r.reason, e->spec.id);
  }
  // A checkpoint that should exist but could not be written refuses the
  // install: the live model must never get ahead of its restorable state.
  // kUnsupported (ARIMA/XGBoost) is no failure — they have no weights file.
  const bool checkpoint_failed =
      !opts.checkpoint_dir.empty() &&
      g.outcome.checkpoint != models::CheckpointStatus::kOk &&
      g.outcome.checkpoint != models::CheckpointStatus::kUnsupported;
  const bool installed = g.session != nullptr &&
                         !g.outcome.quality_rejected && !checkpoint_failed;
  {
    std::lock_guard<std::mutex> state(e->state_mutex);
    e->retrain_inflight = false;
    if (installed) {
      // The entity splinters off the cohort snapshot onto its own
      // generation; other cohort members keep sharing the old pointer.
      e->session = g.session;
      e->generation = g.outcome.generation;
      e->shares_cohort_session = false;
      e->drift.reset();
      e->pending.reset();
      e->last_retrain_tick = e->channel.ticks();
      ++e->retrains;
    }
  }
  if (installed) {
    retrains_completed_.fetch_add(1, std::memory_order_relaxed);
    retrains_counter_.add(1);
  } else {
    retrains_failed_.fetch_add(1, std::memory_order_relaxed);
    retrain_failures_counter_.add(1);
  }
}

// ---------------------------------------------------------------------------
// Placement / observation
// ---------------------------------------------------------------------------

std::uint64_t FleetManager::entity_hash(const std::string& id) {
  // FNV-1a 64-bit: deterministic across runs, processes and platforms —
  // never std::hash, whose result is implementation-defined.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::size_t FleetManager::shard_of(const std::string& id) const {
  return static_cast<std::size_t>(entity_hash(id) % options_.shards);
}

FleetManager::Entity* FleetManager::find_entity(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entities_.find(id);
  return it == entities_.end() ? nullptr : it->second.get();
}

EntityStats FleetManager::entity_stats(const std::string& id) const {
  Entity* e = nullptr;
  EntityStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entities_.find(id);
    RPTCN_CHECK(it != entities_.end(), "no such entity: " << id);
    e = it->second.get();
    s.rejected = e->rejected;
  }
  std::lock_guard<std::mutex> state(e->state_mutex);
  s.id = e->spec.id;
  s.cohort = e->spec.cohort;
  s.shard = e->shard;
  s.generation = e->generation;
  s.shares_cohort_session = e->shares_cohort_session;
  s.ticks = e->channel.ticks();
  s.dropped = e->channel.dropped();
  s.forecasts = e->forecasts;
  s.residuals = e->residuals_scored;
  s.drift_events = e->drift_events;
  s.retrains = e->retrains;
  s.last_drift_reason = e->drift.last_reason();
  s.last_residual = e->last_residual;
  s.mean_abs_residual = e->residuals_scored == 0
                            ? 0.0
                            : e->residual_sum /
                                  static_cast<double>(e->residuals_scored);
  if (e->last_forecast.has_value()) {
    s.has_forecast = true;
    s.last_forecast_norm = e->last_forecast->predicted_norm;
    s.last_forecast_raw = e->last_forecast->predicted_raw;
  }
  return s;
}

std::vector<EntityForecast> FleetManager::latest_forecasts() const {
  std::vector<Entity*> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    all.reserve(entities_.size());
    for (const auto& [id, e] : entities_) all.push_back(e.get());
  }
  std::vector<EntityForecast> out;
  out.reserve(all.size());
  for (Entity* e : all) {
    std::lock_guard<std::mutex> state(e->state_mutex);
    if (e->last_forecast.has_value()) out.push_back(*e->last_forecast);
  }
  std::sort(out.begin(), out.end(),
            [](const EntityForecast& a, const EntityForecast& b) {
              return a.entity < b.entity;
            });
  return out;
}

FleetStats FleetManager::stats() const {
  FleetStats s;
  std::vector<Entity*> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.entities = entities_.size();
    s.queued_ticks = queued_ticks_;
    all.reserve(entities_.size());
    for (const auto& [id, e] : entities_) all.push_back(e.get());
  }
  s.shards = engines_.size();
  s.ticks_accepted = ticks_accepted_.load(std::memory_order_relaxed);
  s.ticks_dropped = ticks_dropped_.load(std::memory_order_relaxed);
  s.ticks_rejected = ticks_rejected_.load(std::memory_order_relaxed);
  s.forecasts = forecasts_.load(std::memory_order_relaxed);
  s.forecast_failures = forecast_failures_.load(std::memory_order_relaxed);
  s.drift_events = drift_events_.load(std::memory_order_relaxed);
  s.retrains_completed = retrains_completed_.load(std::memory_order_relaxed);
  s.retrains_failed = retrains_failed_.load(std::memory_order_relaxed);
  // Entity pointers are stable (the registry only grows), so the session
  // census can walk outside mutex_ taking each state mutex in turn.
  std::set<const void*> sessions;
  for (Entity* e : all) {
    std::lock_guard<std::mutex> state(e->state_mutex);
    if (e->session != nullptr) sessions.insert(e->session.get());
  }
  s.unique_snapshots = sessions.size();
  unique_snapshots_gauge_.set(static_cast<double>(s.unique_snapshots));
  return s;
}

std::vector<double> FleetManager::latencies_seconds() const {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  return latencies_;
}

serve::BatchingEngine& FleetManager::shard_engine(std::size_t shard) {
  RPTCN_CHECK(shard < engines_.size(),
              "shard " << shard << " out of range (" << engines_.size()
                       << " shards)");
  return *engines_[shard];
}

}  // namespace rptcn::fleet
