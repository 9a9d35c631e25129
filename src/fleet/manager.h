// FleetManager: the streaming adapt loop — ingest a tick, forecast one
// step, watch the residuals for drift, refit in the background, install the
// new model — for one entity or thousands. A single stream is a one-entity
// fleet; N entities share engines, workers and the retrain budget instead
// of multiplying them:
//
//  * Model registry keyed by entity id. Each entity carries an immutable
//    shared_ptr<const InferenceSession>; entities in one cohort share the
//    SAME session object after bootstrap_cohort() — snapshot dedup is
//    literal pointer sharing, observable as stats().unique_snapshots.
//    A retrained entity splinters onto a private generation; the cohort
//    pointer lives on in the others.
//  * Engine sharding: `shards` BatchingEngines, entity -> shard by FNV-1a
//    hash of the id (deterministic across runs).
//    Requests pin their entity's session; the engine coalesces every
//    queued same-session same-shape window, so a cohort hashed to one
//    shard still batches its forwards together.
//  * Per-entity streaming state (IngestChannel + DriftMonitor + pending
//    forecast) behind a per-entity mailbox. ingest() is the admission
//    gate: O(1), never blocks, answers kQueueFull / kBacklogFull when the
//    global or per-entity bound is hit — callers shed, the fleet never
//    buffers unboundedly. `workers` pool threads drain ready mailboxes;
//    one entity is owned by at most one worker at a time, so per-entity
//    processing is serial (tick order preserved) while distinct entities
//    proceed in parallel.
//  * Claims and waves: a worker claims up to engine.max_batch ready
//    mailboxes and runs their ticks in waves — wave k submits the k-th
//    tick's forecast of every claimed entity, then waits for all of them —
//    so a claim's forecasts reach the engines together and coalesce. A
//    worker holds one entity's state_mutex at a time and none while a
//    forecast is in flight; readers never wait on a forward. A retrain
//    that installs while a forecast is in flight leaves that forecast
//    counted under the generation that made it, but unscored.
//  * Elastic retraining: drift severity (detector statistic over its
//    threshold) becomes the priority of a RetrainScheduler request; at
//    most retrain_workers fits run fleet-wide, worst drift first. With
//    retrain.checkpoint_dir set, every installed generation is first
//    checkpointed as <dir>/<id>.gen_<N>.ckpt (<cohort> for a bootstrap),
//    and a retrain whose checkpoint cannot be written is not installed.
//
// Tick-to-forecast latency is stamped at ingest-accept and recorded when
// the pinned forecast future delivers — mailbox wait, batching delay and
// the forward all included. fleet/tick_to_forecast_seconds aggregates it;
// latencies_seconds() returns the raw samples for exact quantiles.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/timeseries.h"
#include "fleet/options.h"
#include "fleet/scheduler.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "stream/channel.h"
#include "stream/drift.h"
#include "stream/retrain.h"

namespace rptcn::fleet {

/// Point-in-time view of one entity.
struct EntityStats {
  std::string id;
  std::string cohort;
  std::size_t shard = 0;
  std::uint64_t generation = 0;    ///< 0 = not bootstrapped yet
  bool shares_cohort_session = false;  ///< still on the cohort snapshot
  std::uint64_t ticks = 0;         ///< complete ticks accepted
  std::uint64_t dropped = 0;       ///< non-finite ticks dropped
  std::uint64_t rejected = 0;      ///< admissions bounced for this entity
  std::uint64_t forecasts = 0;
  std::uint64_t residuals = 0;     ///< forecasts scored against their target
  std::uint64_t drift_events = 0;
  std::uint64_t retrains = 0;      ///< generations installed past bootstrap
  /// What fired most recently: "residual-ph", "error-ratio" or
  /// "input:<feature>"; empty while no detector has fired.
  std::string last_drift_reason;
  double last_residual = 0.0;      ///< newest one-step |residual| (norm)
  double mean_abs_residual = 0.0;  ///< running mean over scored forecasts
  bool has_forecast = false;       ///< a forecast has been delivered
  double last_forecast_norm = 0.0; ///< newest next-tick target forecast
  double last_forecast_raw = 0.0;  ///< same, denormalised to raw units
};

/// One entity's newest delivered forecast — the sched layer's input. The
/// raw value is denormalised under the entity's normalizer state when the
/// forecast is issued.
struct EntityForecast {
  std::string entity;
  double predicted_norm = 0.0;  ///< target feature, normalised
  double predicted_raw = 0.0;   ///< target feature, raw units
  std::uint64_t generation = 0; ///< model generation that produced it
  std::uint64_t tick = 0;       ///< entity channel tick it was issued at
};

/// Point-in-time view of the fleet.
struct FleetStats {
  std::size_t entities = 0;
  std::size_t shards = 0;
  std::uint64_t ticks_accepted = 0;
  std::uint64_t ticks_dropped = 0;
  std::uint64_t ticks_rejected = 0;
  std::uint64_t forecasts = 0;
  std::uint64_t forecast_failures = 0;
  std::uint64_t drift_events = 0;
  std::uint64_t retrains_completed = 0;
  std::uint64_t retrains_failed = 0;  ///< fit errors + gate rejections
  std::size_t queued_ticks = 0;       ///< mailbox backlog right now
  /// Distinct InferenceSession objects across all bootstrapped entities —
  /// the dedup proof: equals the cohort count until drift splinters
  /// entities onto private generations, and is < entities whenever any
  /// cohort has >= 2 members still sharing.
  std::size_t unique_snapshots = 0;
};

class FleetManager {
 public:
  explicit FleetManager(FleetOptions options);
  /// Stops intake, drains every queued tick, joins the workers, then the
  /// scheduler finishes in-flight fits (queued ones are abandoned) and the
  /// shard engines drain.
  ~FleetManager();
  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  // -- Registry -------------------------------------------------------------

  /// Register an entity. Thread-safe; allowed while ingest is running (a
  /// fleet grows). If the entity's cohort was already bootstrapped the
  /// shared session is installed immediately. Throws on duplicate id.
  void add_entity(EntitySpec spec);

  /// Cold start one cohort: fit a single generation on `frame` (gated, the
  /// best attempt kept and checkpointed even when the gate rejected it) and
  /// install the resulting session — ONE shared object — into every cohort
  /// member that has no private generation yet.
  /// When `seed_history` is true the frame's complete rows are also folded
  /// into each member's channel, so forecasting starts immediately.
  /// Returns the fit outcome; on a failed fit nothing is installed.
  stream::RetrainOutcome bootstrap_cohort(const std::string& cohort,
                                          const data::TimeSeriesFrame& frame,
                                          bool seed_history = true);

  std::size_t entity_count() const;
  std::vector<std::string> entity_ids() const;

  // -- Ingest ---------------------------------------------------------------

  /// Admit one raw tick (one value per fleet feature, in order) for
  /// `entity`. O(1), never blocks on model work. kAccepted means a worker
  /// will process it; anything else means the tick was shed.
  Admission ingest(const std::string& entity, std::vector<double> row);

  /// Block until every accepted tick has been fully processed (forecast
  /// scored, drift observed). Does NOT wait for retrains; use
  /// scheduler().wait_idle() for that.
  void drain();

  // -- Placement ------------------------------------------------------------

  /// FNV-1a 64-bit over the id bytes — the deterministic placement hash.
  static std::uint64_t entity_hash(const std::string& id);
  std::size_t shard_of(const std::string& id) const;

  // -- Observation ----------------------------------------------------------

  EntityStats entity_stats(const std::string& id) const;
  FleetStats stats() const;
  /// Newest delivered forecast for every entity that has one, sorted by
  /// entity id (deterministic). The bulk read the scheduling layer drives
  /// allocation from — one lock round-trip instead of N entity_stats calls.
  std::vector<EntityForecast> latest_forecasts() const;
  /// Copy of every tick-to-forecast latency (ingest-accept to forecast
  /// delivery, seconds), for exact quantiles.
  std::vector<double> latencies_seconds() const;

  RetrainScheduler& scheduler() { return *scheduler_; }
  const RetrainScheduler& scheduler() const { return *scheduler_; }
  serve::BatchingEngine& shard_engine(std::size_t shard);
  const FleetOptions& options() const { return options_; }
  const std::vector<std::string>& feature_names() const { return features_; }

 private:
  struct QueuedTick {
    std::vector<double> row;
    std::chrono::steady_clock::time_point accepted_at;
  };

  /// All mutable per-entity state. `state_mutex` serializes the channel,
  /// drift monitor, session pointer and pending forecast between the
  /// owning ingest worker and a retrain fit snapshotting history; the
  /// mailbox fields are guarded by the fleet-wide mutex_ instead.
  struct Entity {
    EntitySpec spec;
    std::size_t shard = 0;

    std::mutex state_mutex;
    stream::IngestChannel channel;
    stream::DriftMonitor drift;
    std::shared_ptr<const serve::InferenceSession> session;
    std::uint64_t generation = 0;
    bool shares_cohort_session = false;
    bool retrain_inflight = false;
    std::uint64_t last_retrain_tick = 0;
    /// Drift latch: a fire that lands inside the retrain cooldown (or while
    /// a fit is in flight) is remembered here instead of dropped — the
    /// detectors reset after firing, so without the latch a regime shift
    /// caught mid-cooldown would never be acted on. > 0 means a request is
    /// owed; filed (at the latched severity) on the first eligible tick.
    double latched_severity = 0.0;
    std::string latched_reason;
    std::vector<double> norm_row;  ///< scratch for drift input rows

    struct PendingForecast {
      double predicted_norm = 0.0;
      /// Provider-tick (accepted + dropped) the forecast targets; a dropped
      /// target discards the forecast unscored.
      std::size_t due_provider_tick = 0;
      std::uint64_t generation = 0;
    };
    std::optional<PendingForecast> pending;

    /// Newest delivered forecast (guarded by state_mutex); kept after
    /// `pending` is harvested so readers always see the latest issue.
    std::optional<EntityForecast> last_forecast;

    // Stats (guarded by state_mutex except `rejected`, under mutex_).
    std::uint64_t rejected = 0;
    std::uint64_t forecasts = 0;
    std::uint64_t drift_events = 0;
    std::uint64_t retrains = 0;
    double last_residual = 0.0;
    double residual_sum = 0.0;
    std::uint64_t residuals_scored = 0;

    // Mailbox (guarded by mutex_).
    std::deque<QueuedTick> backlog;
    bool scheduled = false;  ///< queued in ready_ or owned by a worker

    Entity(EntitySpec s, std::size_t shard_index,
           const std::vector<std::string>& features,
           const FleetOptions& options);
  };

  /// One accepted tick between its submit and its delivery: what the
  /// worker captured under the entity's state_mutex when it submitted the
  /// forecast, so delivery needs no state from the submit side.
  struct InFlightTick {
    Entity* entity = nullptr;
    std::chrono::steady_clock::time_point accepted_at;
    /// The pinned forecast; not valid() when the tick submitted none (no
    /// session yet, window not full, or the submit failed).
    std::future<Tensor> forecast;
    std::uint64_t generation = 0;       ///< generation that made it
    std::uint64_t tick = 0;             ///< channel tick it was made at
    std::size_t due_provider_tick = 0;  ///< provider tick it targets
  };

  void worker_loop();
  /// First half of a tick: ingest, score the due forecast, watch the inputs
  /// (a fire is counted and latched here, against the detectors that
  /// fired) and submit the next forecast to e's shard. Takes e.state_mutex;
  /// the caller holds no lock. nullopt when the channel dropped the tick.
  std::optional<InFlightTick> submit_tick(Entity& e, const QueuedTick& tick);
  /// Second half: wait for the forecast with no lock held, then under the
  /// entity's state_mutex record it and file any owed retrain.
  void deliver_tick(InFlightTick& t);
  /// Score the due forecast (if any) against the just-accepted tick.
  /// Returns true when a drift detector fired.
  bool harvest_due(Entity& e);
  /// Drift severity from the detector statistics: how far past its
  /// threshold the loudest detector sits (>= 1 at a fire).
  static double drift_severity(const stream::DriftMonitor& drift,
                               const stream::DriftOptions& options);
  /// Count a detector fire and latch its severity and reason. Caller holds
  /// e.state_mutex.
  void latch_drift(Entity& e);
  /// File the latched retrain request if one is owed and the cooldown /
  /// in-flight guards allow it. Caller holds e.state_mutex.
  void request_latched_retrain(Entity& e);
  /// The scheduler's FitFn: snapshot history, gated fit, install.
  void retrain_entity(const RetrainRequest& r);
  Entity* find_entity(const std::string& id) const;
  /// The fleet retrain template specialised to one entity's model spec.
  stream::RetrainOptions retrain_options_for(const EntitySpec& spec) const;

  FleetOptions options_;
  std::vector<std::string> features_;

  obs::Counter& ticks_counter_;
  obs::Counter& dropped_counter_;
  obs::Counter& rejected_counter_;
  obs::Counter& forecasts_counter_;
  obs::Counter& forecast_failures_counter_;
  obs::Counter& drift_counter_;
  obs::Counter& retrains_counter_;
  obs::Counter& retrain_failures_counter_;
  obs::Histogram& tick_latency_hist_;
  obs::Histogram& retrain_seconds_;
  obs::Gauge& entities_gauge_;
  obs::Gauge& queue_depth_gauge_;
  obs::Gauge& unique_snapshots_gauge_;

  /// One engine per shard (every request pins its entity's session).
  /// Created up front; never resized.
  std::vector<std::unique_ptr<serve::BatchingEngine>> engines_;

  /// Guards the registry, mailboxes and ready queue. Never held while a
  /// state_mutex is held (workers release it before processing), so the
  /// lock order mutex_ -> state_mutex is acyclic.
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers: ready_ or stop_
  std::condition_variable drain_cv_;  ///< drain(): all mailboxes empty
  std::unordered_map<std::string, std::unique_ptr<Entity>> entities_;
  /// Cohort -> shared bootstrap session (installed into late joiners).
  std::unordered_map<std::string,
                     std::shared_ptr<const serve::InferenceSession>>
      cohort_sessions_;
  std::deque<Entity*> ready_;     ///< entities with non-empty backlog
  std::size_t queued_ticks_ = 0;  ///< sum of backlog sizes
  std::size_t processing_ = 0;    ///< entities owned by workers right now
  bool stop_ = false;

  // Fleet-wide tallies (atomic: bumped from workers without mutex_).
  std::atomic<std::uint64_t> ticks_accepted_{0};
  std::atomic<std::uint64_t> ticks_dropped_{0};
  std::atomic<std::uint64_t> ticks_rejected_{0};
  std::atomic<std::uint64_t> forecasts_{0};
  std::atomic<std::uint64_t> forecast_failures_{0};
  std::atomic<std::uint64_t> drift_events_{0};
  std::atomic<std::uint64_t> retrains_completed_{0};
  std::atomic<std::uint64_t> retrains_failed_{0};

  mutable std::mutex latency_mutex_;
  std::vector<double> latencies_;

  std::vector<std::thread> workers_;

  /// Declared last: destroyed first, so in-flight fits (which touch
  /// entities_ and engines_) finish while those members are still alive.
  std::unique_ptr<RetrainScheduler> scheduler_;
};

}  // namespace rptcn::fleet
