// Fleet-layer tests: deterministic sharding, snapshot dedup across a
// cohort (and the splinter onto a private generation under live ingest),
// a failed retrain leaving the incumbent serving, non-finite and
// wrong-arity ticks, cohort forecasts sharing engine forwards, shard
// engines that never hold a forecast for peers, no entity lock held
// across an in-flight forward, the observation reads, per-entity
// checkpoint names, retrain-scheduler priority / dedup / budget / queue
// bounds and fit slots counted as active jobs, admission backpressure, and
// the typed-options construction API (named validation errors,
// FleetBuilder, registry ForecasterSpec).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "fleet/builder.h"
#include "fleet/manager.h"
#include "fleet/options.h"
#include "fleet/scheduler.h"
#include "latched_forecaster.h"
#include "models/registry.h"
#include "serve/session.h"
#include "stream/channel.h"
#include "stream/retrain.h"
#include "stream/source.h"
#include "trace/workload_model.h"

namespace rptcn::fleet {
namespace {

const std::vector<std::string> kFeatures = {"cpu_util_percent",
                                            "mem_util_percent"};

trace::WorkloadParams regime_a() {
  trace::WorkloadParams p;
  p.base_level = 0.25;
  p.diurnal_amplitude = 0.10;
  p.noise_sigma = 0.03;
  p.ar_coefficient = 0.85;
  p.mutation_rate = 0.0;
  p.burst_rate = 0.0;
  return p;
}

trace::WorkloadParams regime_b() {
  trace::WorkloadParams p = regime_a();
  p.base_level = 0.65;
  p.diurnal_amplitude = 0.03;
  p.noise_sigma = 0.08;
  p.ar_coefficient = 0.55;
  return p;
}

data::TimeSeriesFrame regime_trace(const trace::WorkloadParams& params,
                                   std::size_t length, std::uint64_t seed) {
  return stream::make_mutating_trace(params, params, length, 0, seed).frame;
}

/// ARIMA keeps fleet fits fast — the fleet layer under test is routing and
/// lifecycle, not model quality.
models::ForecasterSpec arima_spec() {
  models::ForecasterSpec spec;
  spec.name = "ARIMA";
  return spec;
}

/// Small-window fleet defaults every test starts from.
FleetOptions tiny_fleet_options(const std::string& tenant) {
  FleetOptions o;
  o.features = kFeatures;
  o.shards = 2;
  o.workers = 2;
  o.retrain.model_name = "ARIMA";
  o.retrain.history = 200;
  o.retrain.window.window = 16;
  o.retrain.window.horizon = 1;
  o.retrain.min_ticks_between = 0;
  o.tenant = tenant;
  return o;
}

/// Push frame rows [from, to) into one entity, retrying on backpressure —
/// functional tests want every tick processed, not shed.
void ingest_blocking(FleetManager& fleet, const std::string& id,
                     const data::TimeSeriesFrame& frame, std::size_t from,
                     std::size_t to) {
  const auto& cpu = frame.column("cpu_util_percent");
  const auto& mem = frame.column("mem_util_percent");
  for (std::size_t t = from; t < to; ++t) {
    for (;;) {
      const Admission verdict = fleet.ingest(id, {cpu[t], mem[t]});
      if (verdict == Admission::kAccepted) break;
      ASSERT_TRUE(verdict == Admission::kQueueFull ||
                  verdict == Admission::kBacklogFull)
          << admission_name(verdict);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// Parks one shard engine's single worker inside a latched forward: every
/// fleet forecast handed to that shard queues behind it, in flight, until
/// release(). Declared after the fleet, it releases before the fleet's
/// teardown drains the engines, on every exit path.
class ParkedShard {
 public:
  ParkedShard(FleetManager& fleet, std::size_t shard) {
    fleet.shard_engine(shard).submit(Tensor({1, 1}), session_);
    model_->wait_entered();
  }
  ~ParkedShard() { release(); }
  ParkedShard(const ParkedShard&) = delete;
  ParkedShard& operator=(const ParkedShard&) = delete;

  void release() { model_->release(); }

 private:
  std::shared_ptr<test_util::LatchedForecaster> model_ =
      std::make_shared<test_util::LatchedForecaster>();
  std::shared_ptr<const serve::InferenceSession> session_ =
      std::make_shared<serve::InferenceSession>(
          std::shared_ptr<models::Forecaster>(model_));
};

/// The message of the CheckError `fn` throws; empty if it throws none.
template <typename Fn>
std::string check_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(FleetHash, Fnv1aKnownVectorsAndDeterminism) {
  // Published FNV-1a 64-bit vectors: the offset basis for "", 0xaf63dc4c
  // 8601ec8c for "a" — placement must be stable across runs and platforms.
  EXPECT_EQ(FleetManager::entity_hash(""), 14695981039346656037ULL);
  EXPECT_EQ(FleetManager::entity_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(FleetManager::entity_hash("entity-7"),
            FleetManager::entity_hash("entity-7"));
  EXPECT_NE(FleetManager::entity_hash("entity-7"),
            FleetManager::entity_hash("entity-8"));
}

TEST(FleetSharding, DeterministicAcrossManagersAndMatchesStats) {
  FleetOptions o = tiny_fleet_options("shard-det");
  o.shards = 4;
  FleetManager a(o);
  FleetManager b(o);
  for (int i = 0; i < 64; ++i) {
    EntitySpec spec;
    spec.id = "m-" + std::to_string(i);
    spec.model = arima_spec();
    a.add_entity(spec);
    b.add_entity(spec);
  }
  std::vector<std::size_t> population(4, 0);
  for (int i = 0; i < 64; ++i) {
    const std::string id = "m-" + std::to_string(i);
    EXPECT_EQ(a.shard_of(id), b.shard_of(id));
    EXPECT_EQ(a.entity_stats(id).shard, a.shard_of(id));
    EXPECT_EQ(a.shard_of(id), FleetManager::entity_hash(id) % 4);
    ++population[a.shard_of(id)];
  }
  // FNV-1a spreads 64 sequential ids over 4 shards without emptying any.
  for (std::size_t k = 0; k < 4; ++k) EXPECT_GT(population[k], 0u);
}

// ---------------------------------------------------------------------------
// Cohorts: snapshot dedup and the splinter path
// ---------------------------------------------------------------------------

TEST(FleetCohort, BootstrapSharesOneSnapshotAcrossMembers) {
  FleetOptions o = tiny_fleet_options("dedup");
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 6, "web-")
                   .build();
  EXPECT_EQ(fleet->entity_ids().size(), 6u);

  const auto frame = regime_trace(regime_a(), 240, 11);
  const stream::RetrainOutcome out = fleet->bootstrap_cohort("web", frame);
  EXPECT_TRUE(out.error.empty()) << out.error;

  const FleetStats stats = fleet->stats();
  EXPECT_EQ(stats.entities, 6u);
  // The dedup invariant: one immutable session object for the cohort.
  EXPECT_EQ(stats.unique_snapshots, 1u);
  for (const std::string& id : fleet->entity_ids()) {
    const EntityStats es = fleet->entity_stats(id);
    EXPECT_EQ(es.generation, 1u);
    EXPECT_TRUE(es.shares_cohort_session);
    EXPECT_EQ(es.cohort, "web");
    EXPECT_EQ(es.ticks, 240u) << "seeded history";
  }
}

TEST(FleetCohort, LateJoinerInheritsCohortSession) {
  FleetOptions o = tiny_fleet_options("late-join");
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 2, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 12));

  EntitySpec late;
  late.id = "web-late";
  late.cohort = "web";
  late.model = arima_spec();
  fleet->add_entity(late);

  EXPECT_EQ(fleet->entity_stats("web-late").generation, 1u);
  EXPECT_TRUE(fleet->entity_stats("web-late").shares_cohort_session);
  EXPECT_EQ(fleet->stats().unique_snapshots, 1u);
}

TEST(FleetCohort, DriftSplintersOneEntityOntoPrivateGeneration) {
  FleetOptions o = tiny_fleet_options("splinter");
  o.workers = 2;
  o.retrain_workers = 1;
  // Aggressive detectors so the regime shift fires within ~tens of ticks.
  o.drift.residual_ph.lambda = 0.05;
  o.drift.residual_ph.min_samples = 5;
  o.drift.input_ph.lambda = 0.05;
  o.drift.input_ph.min_samples = 5;
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 4, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 13));
  ASSERT_EQ(fleet->stats().unique_snapshots, 1u);

  // Drift storm on web-0 only; the rest of the cohort keeps serving the
  // shared snapshot while ingest and the retrain run concurrently.
  const auto storm = regime_trace(regime_b(), 160, 14);
  ingest_blocking(*fleet, "web-0", storm, 0, 160);
  fleet->drain();
  fleet->scheduler().wait_idle();

  const EntityStats hit = fleet->entity_stats("web-0");
  EXPECT_GT(hit.drift_events, 0u);
  EXPECT_GE(hit.retrains, 1u);
  EXPECT_GE(hit.generation, 2u);
  EXPECT_FALSE(hit.shares_cohort_session);
  for (const std::string& id : {"web-1", "web-2", "web-3"}) {
    const EntityStats calm = fleet->entity_stats(id);
    EXPECT_EQ(calm.generation, 1u) << id;
    EXPECT_TRUE(calm.shares_cohort_session) << id;
  }
  // One private generation + the shared cohort snapshot.
  EXPECT_EQ(fleet->stats().unique_snapshots, 2u);
  EXPECT_GE(fleet->stats().retrains_completed, 1u);
}

TEST(FleetCohort, ForecastStraddlingAnInstallIsNotScored) {
  // No entity lock is held while a forecast is in flight, so a retrain can
  // install between its submit and its delivery. The install already
  // discarded the old generation's residual: the straddling forecast is
  // counted under the generation that made it and never scored.
  FleetOptions o = tiny_fleet_options("straddle");
  o.workers = 1;
  o.retrain_on_drift = false;  // only the request below retrains
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 1, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 35));
  const std::uint64_t seeded = fleet->entity_stats("web-0").ticks;
  const auto live = regime_trace(regime_a(), 2, 36);

  // The tick's forecast queues behind a parked forward until the install
  // has landed.
  ParkedShard park(*fleet, fleet->shard_of("web-0"));
  ingest_blocking(*fleet, "web-0", live, 0, 1);
  while (fleet->entity_stats("web-0").ticks == seeded)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(fleet->scheduler().request({"web-0", 1.0, "straddle"}));
  fleet->scheduler().wait_idle();
  ASSERT_EQ(fleet->entity_stats("web-0").generation, 2u)
      << "no install for the forecast to straddle";
  ASSERT_EQ(fleet->entity_stats("web-0").forecasts, 0u)
      << "the forecast landed before the install";
  park.release();

  fleet->drain();
  const std::vector<EntityForecast> latest = fleet->latest_forecasts();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].generation, 1u);
  EXPECT_EQ(fleet->entity_stats("web-0").forecasts, 1u);

  ingest_blocking(*fleet, "web-0", live, 1, 2);
  fleet->drain();
  const EntityStats after = fleet->entity_stats("web-0");
  EXPECT_EQ(after.forecasts, 2u);
  EXPECT_EQ(after.residuals, 0u)
      << "scored generation 1's forecast against generation 2's detectors";
}

TEST(FleetCohort, FailedRetrainKeepsTheIncumbentServing) {
  // A retrain whose fit throws is contained: the entity keeps its
  // generation and its cohort session, the failure is counted, and
  // forecasting carries on. Without seeded history the retrain below fits
  // on 18 ticks, two 16+1 windows: too few for a validation split, so the
  // fit's dataset recipe throws.
  FleetOptions o = tiny_fleet_options("failed-fit");
  o.retrain_on_drift = false;  // only the request below retrains
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 2, "web-")
                   .build();
  const stream::RetrainOutcome boot = fleet->bootstrap_cohort(
      "web", regime_trace(regime_a(), 240, 45), /*seed_history=*/false);
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  const auto live = regime_trace(regime_a(), 30, 46);
  ingest_blocking(*fleet, "web-0", live, 0, 18);
  fleet->drain();
  const EntityStats before = fleet->entity_stats("web-0");
  ASSERT_EQ(before.ticks, 18u);

  ASSERT_TRUE(fleet->scheduler().request({"web-0", 1.0, "forced"}));
  fleet->scheduler().wait_idle();

  const EntityStats after = fleet->entity_stats("web-0");
  EXPECT_EQ(after.generation, 1u);
  EXPECT_TRUE(after.shares_cohort_session);
  EXPECT_EQ(after.retrains, 0u);
  const FleetStats stats = fleet->stats();
  EXPECT_EQ(stats.retrains_failed, 1u);
  EXPECT_EQ(stats.retrains_completed, 0u);
  EXPECT_EQ(stats.unique_snapshots, 1u);

  ingest_blocking(*fleet, "web-0", live, 18, 30);
  fleet->drain();
  EXPECT_EQ(fleet->entity_stats("web-0").forecasts, before.forecasts + 12);
  EXPECT_EQ(fleet->stats().forecast_failures, 0u);
}

TEST(FleetCohort, BootstrapOfAnEmptyCohortThrows) {
  FleetManager fleet(tiny_fleet_options("empty-cohort"));
  EntitySpec spec;
  spec.id = "web-0";
  spec.cohort = "web";
  spec.model = arima_spec();
  fleet.add_entity(spec);
  const std::string err = check_error_of([&] {
    fleet.bootstrap_cohort("ghost", regime_trace(regime_a(), 240, 47));
  });
  EXPECT_NE(err.find("\"ghost\""), std::string::npos) << err;
  EXPECT_EQ(fleet.stats().retrains_failed, 0u) << "no fit was attempted";
  EXPECT_EQ(fleet.entity_stats("web-0").generation, 0u);
}

// ---------------------------------------------------------------------------
// Ingest, forecasting, latency recording
// ---------------------------------------------------------------------------

TEST(FleetIngest, ForecastsEveryTickAndRecordsLatencies) {
  FleetOptions o = tiny_fleet_options("ingest");
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 3, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 15));

  const auto live = regime_trace(regime_a(), 30, 16);
  for (const std::string& id : fleet->entity_ids())
    ingest_blocking(*fleet, id, live, 0, 30);
  fleet->drain();

  const FleetStats stats = fleet->stats();
  EXPECT_EQ(stats.ticks_accepted, 90u);
  EXPECT_EQ(stats.queued_ticks, 0u);
  // Seeded history means the window is ready from the first live tick.
  EXPECT_EQ(stats.forecasts, 90u);
  EXPECT_EQ(stats.forecast_failures, 0u);
  EXPECT_EQ(fleet->latencies_seconds().size(), 90u);
  for (const double s : fleet->latencies_seconds()) EXPECT_GE(s, 0.0);

  const EntityStats es = fleet->entity_stats("web-0");
  EXPECT_EQ(es.forecasts, 30u);
  EXPECT_GT(es.mean_abs_residual, 0.0);
}

TEST(FleetIngest, NonFiniteTicksAreDroppedAndLeaveForecastsUntouched) {
  // One +inf or -inf accepted into the running min/max would collapse every
  // later window of that feature and make every forecast non-finite. Such
  // ticks are dropped like NaN ones, so the entity keeps forecasting
  // exactly what a twin fed the same rows without them forecasts.
  FleetOptions o = tiny_fleet_options("non-finite");
  o.retrain_on_drift = false;  // both twins stay on the cohort snapshot
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("twins", arima_spec(), 2, "twin-")
                   .build();
  fleet->bootstrap_cohort("twins", regime_trace(regime_a(), 240, 23));

  const auto live = regime_trace(regime_a(), 30, 24);
  const auto& cpu = live.column("cpu_util_percent");
  const auto& mem = live.column("mem_util_percent");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < 30; ++t) {
    if (t == 10)
      ASSERT_EQ(fleet->ingest("twin-0", {kInf, mem[t]}), Admission::kAccepted);
    if (t == 20)
      ASSERT_EQ(fleet->ingest("twin-0", {cpu[t], -kInf}),
                Admission::kAccepted);
    for (const std::string& id : {"twin-0", "twin-1"})
      ASSERT_EQ(fleet->ingest(id, {cpu[t], mem[t]}), Admission::kAccepted);
    fleet->drain();
    // Compare after every complete row, so the tick right after each
    // non-finite one is checked too.
    const std::vector<EntityForecast> latest = fleet->latest_forecasts();
    ASSERT_EQ(latest.size(), 2u);
    EXPECT_EQ(latest[0].predicted_norm, latest[1].predicted_norm)
        << "row " << t;
    EXPECT_EQ(latest[0].predicted_raw, latest[1].predicted_raw)
        << "row " << t;
    EXPECT_TRUE(std::isfinite(latest[0].predicted_raw)) << "row " << t;
  }
  const EntityStats poisoned = fleet->entity_stats("twin-0");
  EXPECT_EQ(poisoned.dropped, 2u);
  EXPECT_EQ(poisoned.ticks, fleet->entity_stats("twin-1").ticks);
  EXPECT_EQ(fleet->stats().ticks_dropped, 2u);
}

TEST(FleetIngest, UnknownEntityIsRejectedByName) {
  FleetOptions o = tiny_fleet_options("unknown");
  FleetManager fleet(o);
  EXPECT_EQ(fleet.ingest("nobody", {0.1, 0.2}), Admission::kUnknownEntity);
  EXPECT_EQ(fleet.stats().ticks_rejected, 1u);
  EXPECT_STREQ(admission_name(Admission::kAccepted), "accepted");
  EXPECT_STREQ(admission_name(Admission::kQueueFull), "queue_full");
  EXPECT_STREQ(admission_name(Admission::kBacklogFull), "backlog_full");
  EXPECT_STREQ(admission_name(Admission::kUnknownEntity), "unknown_entity");
  EXPECT_STREQ(admission_name(Admission::kStopped), "stopped");
}

TEST(FleetIngest, WrongArityRowIsRejectedBeforeAdmission) {
  // A row carries one value per fleet feature. A short or long row is a
  // caller bug: it throws by name and never reaches a mailbox.
  FleetManager fleet(tiny_fleet_options("arity"));
  EntitySpec spec;
  spec.id = "web-0";
  spec.model = arima_spec();
  fleet.add_entity(spec);
  EXPECT_NE(check_error_of([&] { fleet.ingest("web-0", {0.1}); })
                .find("carries 1 values, fleet has 2 features"),
            std::string::npos);
  EXPECT_THROW(fleet.ingest("web-0", {0.1, 0.2, 0.3}), CheckError);
  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.ticks_accepted, 0u);
  EXPECT_EQ(stats.ticks_rejected, 0u);
  EXPECT_EQ(stats.queued_ticks, 0u);

  EXPECT_EQ(fleet.ingest("web-0", {0.1, 0.2}), Admission::kAccepted);
  fleet.drain();
  EXPECT_EQ(fleet.stats().ticks_accepted, 1u);
}

TEST(FleetIngest, BackpressureShedsInsteadOfBuffering) {
  FleetOptions o = tiny_fleet_options("backpressure");
  o.workers = 1;
  o.max_queued_ticks = 64;
  o.max_entity_backlog = 4;
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 1, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 17));
  // The worker's first forecast queues behind a parked forward, so the
  // worker takes nothing more off the mailbox during the loop below.
  ParkedShard park(*fleet, fleet->shard_of("web-0"));

  const auto live = regime_trace(regime_a(), 200, 18);
  const auto& cpu = live.column("cpu_util_percent");
  const auto& mem = live.column("mem_util_percent");
  std::size_t accepted = 0, backlog_full = 0;
  for (std::size_t t = 0; t < 200; ++t) {
    switch (fleet->ingest("web-0", {cpu[t], mem[t]})) {
      case Admission::kAccepted: ++accepted; break;
      case Admission::kBacklogFull: ++backlog_full; break;
      default: FAIL() << "unexpected admission verdict"; break;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(backlog_full, 0u);
  EXPECT_EQ(accepted + backlog_full, 200u);
  EXPECT_EQ(fleet->stats().ticks_rejected, backlog_full);
  EXPECT_EQ(fleet->entity_stats("web-0").rejected, backlog_full);
  park.release();
  fleet->drain();
  EXPECT_EQ(fleet->stats().queued_ticks, 0u);
}

TEST(FleetIngest, GlobalQueueBoundShedsAcrossEntities) {
  FleetOptions o = tiny_fleet_options("queue-bound");
  o.workers = 1;
  o.max_queued_ticks = 2;
  o.max_entity_backlog = 8;
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 4, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 19));
  // Every shard parked: the worker's first wave stays in flight, so the
  // loop below outruns it by construction.
  ParkedShard park0(*fleet, 0);
  ParkedShard park1(*fleet, 1);

  const auto live = regime_trace(regime_a(), 40, 20);
  const auto& cpu = live.column("cpu_util_percent");
  const auto& mem = live.column("mem_util_percent");
  std::size_t queue_full = 0;
  for (std::size_t t = 0; t < 40; ++t)
    for (const std::string& id : {"web-0", "web-1", "web-2", "web-3"})
      if (fleet->ingest(id, {cpu[t], mem[t]}) == Admission::kQueueFull)
        ++queue_full;
  EXPECT_GT(queue_full, 0u);
  park0.release();
  park1.release();
  fleet->drain();
}

TEST(FleetIngest, CohortTicksShareForwards) {
  // One shard, one worker: the worker claims every ready mailbox and hands
  // all of their forecasts to the engine in one wave before it waits, so a
  // cohort's ticks share one forward instead of one each.
  FleetOptions o = tiny_fleet_options("cohort-forwards");
  o.shards = 1;
  o.workers = 1;
  o.engine.max_batch = 8;
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 8, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 37));

  const auto live = regime_trace(regime_a(), 1, 38);
  const std::vector<std::string> ids = fleet->entity_ids();
  serve::BatchingEngine& engine = fleet->shard_engine(0);
  {
    // The worker parks on the first member's forecast while the other
    // seven ticks queue in their mailboxes; once released it claims all
    // seven together.
    ParkedShard park(*fleet, 0);
    ingest_blocking(*fleet, ids[0], live, 0, 1);
    while (engine.stats().queued == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t i = 1; i < ids.size(); ++i)
      ingest_blocking(*fleet, ids[i], live, 0, 1);
  }
  fleet->drain();
  // The worker bumps its counters just after it delivers a batch.
  while (engine.stats().completed < 1 + ids.size())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The parked forward, then exactly two fleet forwards: the first member
  // alone, the other seven together.
  EXPECT_EQ(engine.stats().batches, 1u + 2u);
  EXPECT_EQ(fleet->stats().forecasts, 8u);
  const std::vector<EntityForecast> latest = fleet->latest_forecasts();
  ASSERT_EQ(latest.size(), 8u);
  for (const EntityForecast& f : latest)
    EXPECT_EQ(f.predicted_norm, latest[0].predicted_norm) << f.entity;
}

TEST(FleetIngest, ReadersDoNotWaitOnAnInFlightForward) {
  // The worker releases the entity's lock before it waits for the
  // forecast: readers see the tick ingested and its forecast not yet
  // delivered instead of blocking until the forward completes.
  FleetOptions o = tiny_fleet_options("readers");
  o.workers = 1;
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 1, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 39));
  const std::uint64_t seeded = fleet->entity_stats("web-0").ticks;
  // The tick's forecast queues behind a parked forward until the reads
  // below are done.
  ParkedShard park(*fleet, fleet->shard_of("web-0"));

  ingest_blocking(*fleet, "web-0", regime_trace(regime_a(), 1, 40), 0, 1);
  EntityStats mid = fleet->entity_stats("web-0");
  while (mid.ticks == seeded) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mid = fleet->entity_stats("web-0");
  }
  EXPECT_EQ(mid.ticks, seeded + 1);
  EXPECT_EQ(mid.forecasts, 0u) << "entity_stats waited out the forward";
  EXPECT_FALSE(mid.has_forecast);
  EXPECT_TRUE(fleet->latest_forecasts().empty());
  EXPECT_EQ(fleet->stats().forecasts, 0u);

  park.release();
  fleet->drain();
  EXPECT_EQ(fleet->entity_stats("web-0").forecasts, 1u);
}

TEST(FleetIngest, ShardEnginesNeverHold) {
  // Every fleet forecast reaches its engine in a wave whose sender has no
  // peers left to wait for, so the fleet overwrites max_delay_us with 0 on
  // each shard: a lone tick is answered at once, not after the template's
  // 2 s hold.
  FleetOptions o = tiny_fleet_options("never-hold");
  o.engine.max_delay_us = 2'000'000;
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 1, "web-")
                   .build();
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 41));

  const auto start = std::chrono::steady_clock::now();
  ingest_blocking(*fleet, "web-0", regime_trace(regime_a(), 1, 42), 0, 1);
  fleet->drain();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(fleet->entity_stats("web-0").forecasts, 1u);
}

TEST(FleetObserve, EntityStatsNamesAnUnknownEntity) {
  FleetManager fleet(tiny_fleet_options("observe-unknown"));
  EXPECT_NE(check_error_of([&] { fleet.entity_stats("nope"); })
                .find("no such entity: nope"),
            std::string::npos);
}

TEST(FleetObserve, LatestForecastsListOnlyEntitiesThatHaveForecast) {
  // The allocator's bulk read: an entity appears once its first forecast
  // is delivered, and the list stays sorted by id.
  FleetOptions o = tiny_fleet_options("observe-latest");
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_cohort("web", arima_spec(), 3, "web-")
                   .build();
  EXPECT_TRUE(fleet->latest_forecasts().empty());
  fleet->bootstrap_cohort("web", regime_trace(regime_a(), 240, 43));
  EXPECT_TRUE(fleet->latest_forecasts().empty())
      << "bootstrap delivers no forecast";

  const auto live = regime_trace(regime_a(), 1, 44);
  ingest_blocking(*fleet, "web-2", live, 0, 1);
  fleet->drain();
  std::vector<EntityForecast> latest = fleet->latest_forecasts();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].entity, "web-2");
  EXPECT_FALSE(fleet->entity_stats("web-0").has_forecast);

  ingest_blocking(*fleet, "web-0", live, 0, 1);
  fleet->drain();
  latest = fleet->latest_forecasts();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest[0].entity, "web-0");
  EXPECT_EQ(latest[1].entity, "web-2");
  // Same snapshot, same seeded history, same row: the same bits.
  EXPECT_EQ(latest[0].tick, latest[1].tick);
  EXPECT_EQ(latest[0].predicted_norm, latest[1].predicted_norm);
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A tiny RPTCN: the checkpoint tests need weight files, not accuracy.
models::ForecasterSpec tiny_rptcn_spec() {
  models::ForecasterSpec spec;
  spec.name = "RPTCN";
  spec.config.nn.max_epochs = 2;
  spec.config.nn.patience = 2;
  spec.config.nn.seed = 9;
  spec.config.rptcn.tcn.channels = {6, 6};
  spec.config.rptcn.fc_dim = 6;
  return spec;
}

TEST(FleetCheckpoint, CohortsRestoreFromTheirOwnCheckpoints) {
  // Two one-entity RPTCN cohorts bootstrapped on different traces both
  // reach generation 1; each must checkpoint under its own name, so each
  // file restores to exactly the weights that cohort serves.
  FleetOptions o = tiny_fleet_options("ckpt-names");
  o.retrain.checkpoint_dir = ::testing::TempDir();
  const models::ForecasterSpec rptcn = tiny_rptcn_spec();
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_entity({"ckpt-web", "", rptcn})
                   .add_entity({"ckpt-db", "", rptcn})
                   .build();

  struct Lineage {
    std::string id;
    data::TimeSeriesFrame bootstrap;
    data::TimeSeriesFrame live;
    std::string checkpoint;
  };
  std::vector<Lineage> lineages = {
      {"ckpt-web", regime_trace(regime_a(), 240, 31),
       regime_trace(regime_a(), 1, 32), ""},
      {"ckpt-db", regime_trace(regime_b(), 240, 33),
       regime_trace(regime_b(), 1, 34), ""}};
  for (Lineage& l : lineages) {
    const stream::RetrainOutcome out =
        fleet->bootstrap_cohort(l.id, l.bootstrap);
    ASSERT_TRUE(out.error.empty()) << out.error;
    ASSERT_EQ(out.checkpoint, models::CheckpointStatus::kOk);
    l.checkpoint = out.checkpoint_path;
  }
  EXPECT_NE(lineages[0].checkpoint, lineages[1].checkpoint);
  EXPECT_EQ(lineages[0].checkpoint,
            o.retrain.checkpoint_dir + "/ckpt-web.gen_1.ckpt");

  stream::RetrainOptions ropt = o.retrain;
  ropt.model_name = rptcn.name;
  ropt.model = rptcn.config;
  for (const Lineage& l : lineages) {
    ingest_blocking(*fleet, l.id, l.live, 0, 1);
    fleet->drain();
    // The entity's channel: the seeded bootstrap rows, then the live one.
    stream::IngestChannel mirror(kFeatures, o.channel);
    mirror.replay(l.bootstrap);
    mirror.replay(l.live);

    auto restored = models::make_forecaster(ropt.model_name, ropt.model);
    const models::ForecastDataset donor = stream::build_dataset(
        mirror.history(ropt.history), mirror.normalizer(), ropt);
    ASSERT_EQ(restored->restore(donor, l.checkpoint),
              models::CheckpointStatus::kOk);
    serve::InferenceSession session(*restored);
    const Tensor lw = mirror.latest_window(ropt.window.window);
    Tensor one({1, lw.dim(0), lw.dim(1)});
    std::copy_n(lw.raw(), lw.size(), one.raw());
    const EntityStats served = fleet->entity_stats(l.id);
    ASSERT_TRUE(served.has_forecast);
    EXPECT_EQ(static_cast<float>(served.last_forecast_norm),
              session.run(one).raw()[0])
        << l.id << " does not serve what its checkpoint restores to";
  }
}

TEST(FleetCheckpoint, RetrainWhoseCheckpointCannotBeWrittenIsNotInstalled) {
  // The live model must never get ahead of its restorable state: with an
  // unwritable checkpoint_dir a drift retrain fits fine but is refused,
  // and the entity keeps serving its bootstrap generation.
  FleetOptions o = tiny_fleet_options("ckpt-unwritable");
  o.retrain_workers = 1;
  o.retrain.checkpoint_dir = ::testing::TempDir() + "no_such_dir";
  o.drift.residual_ph.lambda = 0.05;
  o.drift.residual_ph.min_samples = 5;
  o.drift.input_ph.lambda = 0.05;
  o.drift.input_ph.min_samples = 5;
  auto fleet = FleetBuilder()
                   .options(o)
                   .add_entity({"ckpt-refused", "", tiny_rptcn_spec()})
                   .build();
  const stream::RetrainOutcome boot =
      fleet->bootstrap_cohort("ckpt-refused", regime_trace(regime_a(), 240, 41));
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  // A bootstrap is installed even so: some model must serve.
  EXPECT_EQ(boot.checkpoint, models::CheckpointStatus::kIoError);
  EXPECT_EQ(fleet->entity_stats("ckpt-refused").generation, 1u);

  ingest_blocking(*fleet, "ckpt-refused", regime_trace(regime_b(), 160, 42),
                  0, 160);
  fleet->drain();
  fleet->scheduler().wait_idle();

  const EntityStats s = fleet->entity_stats("ckpt-refused");
  EXPECT_GT(s.drift_events, 0u);
  EXPECT_EQ(s.generation, 1u) << "installed a generation it cannot restore";
  EXPECT_EQ(s.retrains, 0u);
  EXPECT_GE(fleet->stats().retrains_failed, 1u);
}

// ---------------------------------------------------------------------------
// RetrainScheduler
// ---------------------------------------------------------------------------

TEST(FleetScheduler, DispatchesByPriorityWithOneSlotPerEntity) {
  SchedulerOptions so;
  so.workers = 1;
  so.tenant = "sched-prio";
  std::mutex order_mutex;
  std::vector<std::string> order;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> started{0};
  RetrainScheduler sched(so, [&](const RetrainRequest& r) {
    if (started.fetch_add(1) == 0) opened.wait();  // hold the first dispatch
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(r.entity);
  });

  ASSERT_TRUE(sched.request({"blocker", 10.0, "t"}));
  while (sched.stats().inflight == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(sched.request({"low-a", 1.0, "t"}));
  ASSERT_TRUE(sched.request({"low-b", 1.0, "t"}));
  ASSERT_TRUE(sched.request({"high", 5.0, "t"}));
  // A louder re-request of a queued entity takes no slot and leaves its
  // priority as it is.
  ASSERT_TRUE(sched.request({"low-a", 7.0, "t"}));
  EXPECT_EQ(sched.stats().queued, 3u);
  gate.set_value();
  sched.wait_idle();

  const std::vector<std::string> expected = {"blocker", "high", "low-a",
                                             "low-b"};
  EXPECT_EQ(order, expected);
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected_full, 0u);
}

TEST(FleetScheduler, BoundedQueueRejectsOverflow) {
  SchedulerOptions so;
  so.workers = 1;
  so.tenant = "sched-bound";
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  RetrainScheduler sched(so, [&](const RetrainRequest&) { opened.wait(); });

  ASSERT_TRUE(sched.request({"inflight", 1.0, "t"}));
  while (sched.stats().inflight == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (std::size_t i = 0; i < RetrainScheduler::kMaxQueue; ++i)
    ASSERT_TRUE(sched.request({"q" + std::to_string(i), 1.0, "t"})) << i;
  EXPECT_EQ(sched.stats().queued, RetrainScheduler::kMaxQueue);
  EXPECT_FALSE(sched.request({"overflow", 1.0, "t"}));
  // A queued entity re-request is a dedup hit, never a rejection.
  EXPECT_TRUE(sched.request({"q1", 2.0, "t"}));
  EXPECT_EQ(sched.stats().rejected_full, 1u);
  gate.set_value();
  sched.wait_idle();
  EXPECT_EQ(sched.stats().completed, 1 + RetrainScheduler::kMaxQueue);
}

TEST(FleetScheduler, ConcurrencyNeverExceedsBudget) {
  SchedulerOptions so;
  so.workers = 3;
  so.tenant = "sched-budget";
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  RetrainScheduler sched(so, [&](const RetrainRequest&) {
    const int now = running.fetch_add(1) + 1;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    running.fetch_sub(1);
  });
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(sched.request({"e-" + std::to_string(i),
                               static_cast<double>(i), "t"}));
  sched.wait_idle();
  EXPECT_EQ(sched.stats().completed, 10u);
  EXPECT_LE(peak.load(), 3);
  EXPECT_GE(peak.load(), 1);
}

TEST(FleetScheduler, FitsCountAsActiveJobs) {
  // A fit is a coarse job like a pool task: two concurrent fits keep their
  // kernels on one thread each, while a lone fit may still fan out.
  SchedulerOptions so;
  so.workers = 2;
  so.tenant = "sched-jobs";
  struct Seen {
    std::string entity;
    bool fan_out_allowed = false;
  };
  std::mutex seen_mutex;
  std::vector<Seen> seen;
  std::atomic<int> arrived{0};
  std::atomic<int> recorded{0};
  RetrainScheduler sched(so, [&](const RetrainRequest& r) {
    const bool pair = r.entity != "solo";
    if (pair) {
      // Both pair fits record while the other is still inside its fit.
      arrived.fetch_add(1);
      while (arrived.load() < 2) std::this_thread::yield();
    }
    Seen s;
    s.entity = r.entity;
    s.fan_out_allowed = kernel_parallelism_allowed();
    {
      std::lock_guard<std::mutex> lock(seen_mutex);
      seen.push_back(s);
    }
    if (pair) {
      recorded.fetch_add(1);
      while (recorded.load() < 2) std::this_thread::yield();
    }
  });

  ASSERT_TRUE(sched.request({"solo", 1.0, "t"}));
  sched.wait_idle();
  ASSERT_TRUE(sched.request({"pair-a", 1.0, "t"}));
  ASSERT_TRUE(sched.request({"pair-b", 1.0, "t"}));
  sched.wait_idle();

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].entity, "solo");
  EXPECT_TRUE(seen[0].fan_out_allowed);
  EXPECT_FALSE(seen[1].fan_out_allowed);
  EXPECT_FALSE(seen[2].fan_out_allowed);
  EXPECT_EQ(ThreadPool::active_jobs(), 0u);
}

TEST(FleetScheduler, BudgetExhaustionFilesHighSeverityAndRunsItFirst) {
  // Every fit slot busy + a new high-severity drift fire: the request must
  // be latched (accepted, queued), and must run ahead of earlier
  // lower-severity requests the moment a slot frees.
  SchedulerOptions so;
  so.workers = 2;
  so.tenant = "sched-exhaust";
  std::mutex order_mutex;
  std::vector<std::string> order;
  std::promise<void> gate_a;
  std::promise<void> gate_b;
  std::shared_future<void> opened_a = gate_a.get_future().share();
  std::shared_future<void> opened_b = gate_b.get_future().share();
  RetrainScheduler sched(so, [&](const RetrainRequest& r) {
    if (r.entity == "blocker-a") opened_a.wait();
    if (r.entity == "blocker-b") opened_b.wait();
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(r.entity);
  });

  ASSERT_TRUE(sched.request({"blocker-a", 10.0, "drift"}));
  ASSERT_TRUE(sched.request({"blocker-b", 10.0, "drift"}));
  while (sched.stats().inflight < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Budget exhausted. Lower-severity requests land first, then the
  // high-severity fire; all three must latch, none may run yet.
  ASSERT_TRUE(sched.request({"low-1", 1.0, "cadence"}));
  ASSERT_TRUE(sched.request({"low-2", 2.0, "cadence"}));
  ASSERT_TRUE(sched.request({"high", 9.0, "drift"}));
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.inflight, 2u);
  EXPECT_EQ(stats.queued, 3u);
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.completed, 0u);

  // Free exactly one slot: the lone freed worker must drain the latch in
  // severity order, high first, while blocker-b still holds its slot.
  gate_a.set_value();
  while (sched.stats().completed < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate_b.set_value();
  sched.wait_idle();

  const std::vector<std::string> expected = {"blocker-a", "high", "low-2",
                                             "low-1", "blocker-b"};
  EXPECT_EQ(order, expected);
  stats = sched.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.rejected_full, 0u);
}

// ---------------------------------------------------------------------------
// Construction API: named validation errors, builder, registry specs
// ---------------------------------------------------------------------------

TEST(FleetOptionsApi, ValidationNamesTheOffendingField) {
  EXPECT_NE(check_error_of([] {
              FleetOptions o;
              o.shards = 0;
              o.validate();
            }).find("FleetOptions.shards"),
            std::string::npos);
  EXPECT_NE(check_error_of([] {
              FleetOptions o;
              o.workers = 0;
              o.validate();
            }).find("FleetOptions.workers"),
            std::string::npos);
  EXPECT_NE(check_error_of([] {
              FleetOptions o;
              o.max_entity_backlog = 0;
              o.validate();
            }).find("FleetOptions.max_entity_backlog"),
            std::string::npos);
  EXPECT_NE(check_error_of([] {
              FleetOptions o;
              o.tenant = "bad{tenant}";
              o.validate();
            }).find("FleetOptions.tenant"),
            std::string::npos);
  // Ring depth must retain a forecast window.
  EXPECT_NE(check_error_of([] {
              FleetOptions o;
              o.channel.capacity = 8;
              o.retrain.window.window = 16;
              o.validate();
            }).find("channel.capacity"),
            std::string::npos);
  // Sub-option validators recurse with their own field names.
  EXPECT_NE(check_error_of([] {
              FleetOptions o;
              o.engine.max_batch = 0;
              o.validate();
            }).find("EngineOptions.max_batch"),
            std::string::npos);
}

TEST(FleetOptionsApi, EntitySpecValidatesIdAndModel) {
  EXPECT_NE(check_error_of([] {
              EntitySpec s;
              s.validate();
            }).find("EntitySpec.id"),
            std::string::npos);
  // Ids and cohorts name checkpoint files, so they cannot hold a path
  // separator.
  EXPECT_NE(check_error_of([] {
              EntitySpec s;
              s.id = "rack/1";
              s.validate();
            }).find("EntitySpec.id"),
            std::string::npos);
  EXPECT_NE(check_error_of([] {
              EntitySpec s;
              s.id = "ok";
              s.cohort = "../web";
              s.validate();
            }).find("EntitySpec.cohort"),
            std::string::npos);
  const std::string err = check_error_of([] {
    EntitySpec s;
    s.id = "ok";
    s.model.name = "NotAModel";
    s.validate();
  });
  // The unknown-name error keeps the full known-names list.
  EXPECT_NE(err.find("NotAModel"), std::string::npos);
  EXPECT_NE(err.find("RPTCN"), std::string::npos);
  EXPECT_NE(err.find("ARIMA"), std::string::npos);
}

TEST(FleetOptionsApi, BuilderValidatesBeforeStartingAnything) {
  FleetOptions no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(FleetBuilder().options(no_shards).build(), CheckError);
  EXPECT_THROW(FleetBuilder()
                   .add_entity([] {
                     EntitySpec s;
                     s.id = "x";
                     s.model.name = "nope";
                     return s;
                   }())
                   .build(),
               CheckError);
}

TEST(FleetOptionsApi, BuilderSingleEntityIsTheNEqualsOneCase) {
  FleetOptions o = tiny_fleet_options("solo");
  o.shards = 1;
  o.workers = 1;
  EntitySpec solo;
  solo.id = "solo-0";
  solo.model = arima_spec();
  auto fleet = FleetBuilder().options(o).add_entity(solo).build();
  EXPECT_EQ(fleet->entity_ids().size(), 1u);
  // An id-only entity is a private cohort of one: bootstrap by cohort = id.
  fleet->bootstrap_cohort("solo-0", regime_trace(regime_a(), 240, 21));
  const auto live = regime_trace(regime_a(), 20, 22);
  ingest_blocking(*fleet, "solo-0", live, 0, 20);
  fleet->drain();
  EXPECT_EQ(fleet->entity_stats("solo-0").forecasts, 20u);
  EXPECT_EQ(fleet->stats().unique_snapshots, 1u);
}

TEST(FleetOptionsApi, OneBuilderBuildsIndependentFleets) {
  // build() copies the recipe: each call starts its own manager with the
  // same entities, and bootstrapping one leaves the other cold.
  FleetBuilder builder;
  builder.options(tiny_fleet_options("recipe"))
      .add_cohort("web", arima_spec(), 2, "web-");
  auto a = builder.build();
  auto b = builder.build();
  EXPECT_EQ(a->entity_ids(), b->entity_ids());
  a->bootstrap_cohort("web", regime_trace(regime_a(), 240, 48));
  EXPECT_EQ(a->entity_stats("web-0").generation, 1u);
  EXPECT_EQ(b->entity_stats("web-0").generation, 0u);
  EXPECT_EQ(b->stats().unique_snapshots, 0u);
}

TEST(FleetOptionsApi, BuilderRejectsEmptyCohortsAndDuplicateIds) {
  EXPECT_THROW(FleetBuilder().add_cohort("web", arima_spec(), 0, "web-"),
               CheckError);
  // add_cohort names members "<prefix><i>": two cohorts sharing a prefix
  // collide on ids, and build() says which one.
  FleetBuilder clash;
  clash.options(tiny_fleet_options("clash"))
      .add_cohort("web", arima_spec(), 2, "node-")
      .add_cohort("api", arima_spec(), 1, "node-");
  EXPECT_NE(check_error_of([&] { clash.build(); })
                .find("duplicate entity id: node-0"),
            std::string::npos);
}

TEST(FleetRegistry, ListForecastersMirrorsTheFactoryNames) {
  const auto specs = models::list_forecasters();
  const auto& names = models::forecaster_names();
  ASSERT_EQ(specs.size(), names.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].name, names[i]);
    EXPECT_NO_THROW(specs[i].validate());
  }
  // A typed spec builds exactly what the (name, config) factory builds.
  models::ForecasterSpec spec;
  spec.name = "ARIMA";
  const auto built = models::make_forecaster(spec);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->name(), models::make_forecaster("ARIMA", {})->name());
}

}  // namespace
}  // namespace rptcn::fleet
