// Scheduling-layer tests: bin-packer invariants (capacity, single
// placement, determinism, sticky migration counting), autoscaler policy
// arithmetic, replay scoring against a hand-computed mini-trace, the
// closed-loop SchedulerLoop's determinism and infeasibility pricing, and
// fleet integration bit-consistency (the forecast the fleet exposes equals
// an independently mirrored bootstrap-fit + serve of the same history).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "fleet/manager.h"
#include "fleet/options.h"
#include "sched/autoscaler.h"
#include "sched/cluster.h"
#include "sched/forecast.h"
#include "sched/loop.h"
#include "sched/replay.h"
#include "stream/channel.h"
#include "stream/retrain.h"
#include "stream/source.h"
#include "trace/workload_model.h"

namespace rptcn::sched {
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
  p.base_level = 0.55;
  p.diurnal_amplitude = 0.05;
  p.noise_sigma = 0.05;
  p.ar_coefficient = 0.65;
  return p;
}

data::TimeSeriesFrame regime_trace(const trace::WorkloadParams& params,
                                   std::size_t length, std::uint64_t seed) {
  return stream::make_mutating_trace(params, params, length, 0, seed).frame;
}

Allocation alloc(const std::string& entity, double cpu, double mem) {
  Allocation a;
  a.entity = entity;
  a.cpu = cpu;
  a.mem = mem;
  return a;
}

// ---------------------------------------------------------------------------
// ClusterModel / bin packer
// ---------------------------------------------------------------------------

TEST(SchedPacker, FirstFitDecreasingPlacesByDescendingCpu) {
  ClusterModel cluster({{1.0, 1.0}, {1.0, 1.0}});
  const std::vector<Allocation> round = {alloc("c", 0.3, 0.1),
                                         alloc("a", 0.6, 0.1),
                                         alloc("b", 0.5, 0.1)};
  const PackResult r = cluster.pack(round);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.machines_used, 2u);
  // FFD order a(0.6) -> m0, b(0.5) -> m1, c(0.3) first-fits back onto m0.
  EXPECT_EQ(cluster.placement_of("a"), 0u);
  EXPECT_EQ(cluster.placement_of("b"), 1u);
  EXPECT_EQ(cluster.placement_of("c"), 0u);
  EXPECT_DOUBLE_EQ(cluster.cpu_used(0), 0.9);
  EXPECT_DOUBLE_EQ(cluster.cpu_used(1), 0.5);
}

TEST(SchedPacker, InvariantsHoldUnderRandomisedRounds) {
  const std::vector<MachineSpec> machines = {
      {1.0, 1.0}, {1.0, 1.0}, {0.5, 0.75}, {2.0, 2.0}};
  ClusterModel cluster(machines);
  ClusterModel twin(machines);

  std::uint64_t s = 123456789;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s >> 33) /
           static_cast<double>(1ULL << 31);
  };

  for (int round = 0; round < 25; ++round) {
    std::vector<Allocation> allocations;
    for (int e = 0; e < 12; ++e)
      allocations.push_back(alloc("e" + std::to_string(e), next() * 0.8,
                                  next() * 0.8));
    const PackResult r = cluster.pack(allocations);
    const PackResult rt = twin.pack(allocations);

    // No machine past capacity.
    for (std::size_t m = 0; m < machines.size(); ++m) {
      EXPECT_LE(cluster.cpu_used(m), machines[m].cpu + 1e-9);
      EXPECT_LE(cluster.mem_used(m), machines[m].mem + 1e-9);
    }
    // Every entity is either placed on exactly one machine or reported
    // unplaced — never both, never neither.
    const std::set<std::string> unplaced(r.unplaced.begin(),
                                         r.unplaced.end());
    double placed_cpu = 0.0;
    for (const Allocation& a : allocations) {
      const bool placed = cluster.placement_of(a.entity) !=
                          ClusterModel::kUnplaced;
      EXPECT_NE(placed, unplaced.count(a.entity) == 1) << a.entity;
      if (placed) placed_cpu += a.cpu;
    }
    EXPECT_EQ(r.feasible, r.unplaced.empty());
    // Machine loads account for exactly the placed requests.
    double used_cpu = 0.0;
    for (std::size_t m = 0; m < machines.size(); ++m)
      used_cpu += cluster.cpu_used(m);
    EXPECT_NEAR(used_cpu, placed_cpu, 1e-9);

    // Determinism: an identical twin fed the same rounds agrees exactly.
    EXPECT_EQ(r.feasible, rt.feasible);
    EXPECT_EQ(r.migrations, rt.migrations);
    EXPECT_EQ(r.unplaced, rt.unplaced);
    for (const Allocation& a : allocations)
      EXPECT_EQ(cluster.placement_of(a.entity), twin.placement_of(a.entity));
  }
}

TEST(SchedPacker, RepackingIdenticalRequestsIsStickyWithZeroMigrations) {
  ClusterModel cluster({{1.0, 1.0}, {1.0, 1.0}});
  const std::vector<Allocation> round = {alloc("a", 0.6, 0.2),
                                         alloc("b", 0.5, 0.2),
                                         alloc("c", 0.3, 0.2)};
  cluster.pack(round);
  const std::size_t a0 = cluster.placement_of("a");
  const std::size_t b0 = cluster.placement_of("b");
  const std::size_t c0 = cluster.placement_of("c");
  const PackResult again = cluster.pack(round);
  EXPECT_EQ(again.migrations, 0u);
  EXPECT_EQ(cluster.placement_of("a"), a0);
  EXPECT_EQ(cluster.placement_of("b"), b0);
  EXPECT_EQ(cluster.placement_of("c"), c0);
}

TEST(SchedPacker, GrowthEvictsToAnotherMachineAndCountsTheMigration) {
  ClusterModel cluster({{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}});
  cluster.pack({alloc("a", 0.6, 0.1), alloc("b", 0.5, 0.1),
                alloc("c", 0.45, 0.1)});
  // a -> m0, b -> m1, c -> m1 (0.45 fits beside 0.5).
  ASSERT_EQ(cluster.placement_of("c"), 1u);
  // b grows: sticky m1 still fits b (packed first), but c no longer fits
  // beside it and must migrate to m2 (m0 holds 0.6).
  const PackResult r = cluster.pack({alloc("a", 0.6, 0.1),
                                     alloc("b", 0.7, 0.1),
                                     alloc("c", 0.45, 0.1)});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(cluster.placement_of("b"), 1u);
  EXPECT_EQ(cluster.placement_of("c"), 2u);
  EXPECT_EQ(r.migrations, 1u);
}

TEST(SchedPacker, OverflowIsReportedUnplacedNotOverPacked) {
  ClusterModel cluster({{1.0, 1.0}});
  const PackResult r = cluster.pack({alloc("a", 0.7, 0.1),
                                     alloc("b", 0.6, 0.1)});
  EXPECT_FALSE(r.feasible);
  ASSERT_EQ(r.unplaced.size(), 1u);
  EXPECT_EQ(r.unplaced[0], "b");
  EXPECT_EQ(cluster.placement_of("b"), ClusterModel::kUnplaced);
  EXPECT_LE(cluster.cpu_used(0), 1.0 + 1e-9);
}

// ---------------------------------------------------------------------------
// Autoscaler
// ---------------------------------------------------------------------------

TEST(SchedAutoscaler, HeadroomFloorsCapsAndDeadband) {
  AutoscalerOptions o;
  o.headroom = 1.2;
  o.cpu_floor = 0.05;
  o.mem_floor = 0.05;
  o.down_deadband = 0.1;
  Autoscaler scaler(o);

  ResourceForecast d;
  d.cpu = 0.5;
  d.mem = 0.25;
  Allocation a = scaler.decide("e", d);
  EXPECT_DOUBLE_EQ(a.cpu, 0.6);
  EXPECT_DOUBLE_EQ(a.mem, 0.3);
  EXPECT_EQ(scaler.scale_events(), 0u) << "first allocation is not churn";

  // Scale-up applies immediately.
  d.cpu = 0.58;
  a = scaler.decide("e", d);
  EXPECT_DOUBLE_EQ(a.cpu, 0.58 * 1.2);
  EXPECT_EQ(scaler.scale_events(), 1u);

  // A shrink inside the dead-band keeps the current allocation.
  d.cpu = 0.55;
  a = scaler.decide("e", d);
  EXPECT_DOUBLE_EQ(a.cpu, 0.58 * 1.2);
  EXPECT_EQ(scaler.scale_events(), 1u);

  // A shrink past the dead-band lands exactly on target.
  d.cpu = 0.4;
  a = scaler.decide("e", d);
  EXPECT_DOUBLE_EQ(a.cpu, 0.48);
  EXPECT_EQ(scaler.scale_events(), 2u);

  // Floors bound the shrink, caps bound the growth.
  d.cpu = 0.01;
  d.mem = 0.01;
  a = scaler.decide("e", d);
  EXPECT_DOUBLE_EQ(a.cpu, 0.05);
  EXPECT_DOUBLE_EQ(a.mem, 0.05);
  d.cpu = 2.0;
  d.mem = 2.0;
  a = scaler.decide("e", d);
  EXPECT_DOUBLE_EQ(a.cpu, 1.0);
  EXPECT_DOUBLE_EQ(a.mem, 1.0);
}

TEST(SchedAutoscaler, OptionsValidateNamedFields) {
  AutoscalerOptions o;
  o.headroom = 0.5;
  EXPECT_THROW(o.validate(), CheckError);
  o = AutoscalerOptions{};
  o.down_deadband = 1.0;
  EXPECT_THROW(o.validate(), CheckError);
  o = AutoscalerOptions{};
  o.cpu_cap = 0.01;
  EXPECT_THROW(o.validate(), CheckError);
}

TEST(SchedAutoscaler, MemFloorMayNotExceedOneMachine) {
  // Memory allocations are capped at one machine, so a floor above it
  // could never be met.
  AutoscalerOptions o;
  o.mem_floor = 1.0;
  EXPECT_NO_THROW(o.validate());
  o.mem_floor = 1.5;
  try {
    o.validate();
    FAIL() << "mem_floor 1.5 accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("mem_floor"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Autoscaler{o}, CheckError);
}

// ---------------------------------------------------------------------------
// ReplayEvaluator
// ---------------------------------------------------------------------------

TEST(SchedReplay, ScoringMatchesHandComputedMiniTrace) {
  CostModel cost;
  cost.over_unit_cost = 1.0;
  cost.under_unit_cost = 8.0;
  cost.violation_cost = 0.05;
  cost.migration_cost = 0.5;
  cost.scale_event_cost = 0.1;
  ReplayEvaluator eval(cost);

  ResourceForecast d0;
  d0.cpu = 0.5;
  d0.mem = 0.3;
  EXPECT_FALSE(eval.observe(0, d0, alloc("e", 0.6, 0.4)));
  ResourceForecast d1;
  d1.cpu = 0.7;
  d1.mem = 0.3;
  EXPECT_TRUE(eval.observe(1, d1, alloc("e", 0.6, 0.4)));
  eval.record_scale_events(0, 3);
  eval.record_migrations(1, 2);

  const ReplayScore s = eval.score();
  EXPECT_EQ(s.entity_ticks, 2u);
  EXPECT_EQ(s.violations, 1u);
  EXPECT_DOUBLE_EQ(s.violation_rate, 0.5);
  // tick 0: over = (0.6-0.5) + (0.4-0.3) = 0.2; tick 1: over mem 0.1,
  // under cpu 0.1.
  EXPECT_NEAR(s.over_integral, 0.3, 1e-12);
  EXPECT_NEAR(s.under_integral, 0.1, 1e-12);
  EXPECT_EQ(s.migrations, 2u);
  EXPECT_EQ(s.scale_events, 3u);
  EXPECT_NEAR(s.over_cost, 0.3, 1e-12);
  EXPECT_NEAR(s.under_cost, 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(s.violation_cost, 0.05);
  EXPECT_DOUBLE_EQ(s.migration_cost, 1.0);
  EXPECT_NEAR(s.scale_cost, 0.3, 1e-12);
  EXPECT_NEAR(s.total_cost, 0.3 + 0.8 + 0.05 + 1.0 + 0.3, 1e-12);

  // Windowed scoring isolates tick 1.
  const ReplayScore w = eval.score_window(1, 2);
  EXPECT_EQ(w.entity_ticks, 1u);
  EXPECT_EQ(w.violations, 1u);
  EXPECT_EQ(w.scale_events, 0u);
  EXPECT_EQ(w.migrations, 2u);
  EXPECT_NEAR(w.total_cost, 0.1 + 0.8 + 0.05 + 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Forecast sources
// ---------------------------------------------------------------------------

TEST(SchedForecast, NaiveSourcesReadTheTraceTail) {
  const data::TimeSeriesFrame frame = regime_trace(regime_a(), 64, 3);
  const auto& cpu = frame.column("cpu_util_percent");
  const auto& mem = frame.column("mem_util_percent");

  LastValueSource last;
  const ResourceForecast lf = last.forecast(frame);
  EXPECT_DOUBLE_EQ(lf.cpu, cpu.back());
  EXPECT_DOUBLE_EQ(lf.mem, mem.back());

  MaxWindowSource max8(8);
  const ResourceForecast mf = max8.forecast(frame);
  EXPECT_DOUBLE_EQ(mf.cpu, *std::max_element(cpu.end() - 8, cpu.end()));
  EXPECT_DOUBLE_EQ(mf.mem, mem.back());
  EXPECT_GE(mf.cpu, lf.cpu);
}

TEST(SchedForecast, SessionSourceIsDeterministicAndRefitsGenerations) {
  SessionSourceOptions o;
  o.retrain.model_name = "ARIMA";
  o.retrain.history = 200;
  o.retrain.window.window = 16;
  o.retrain.window.horizon = 1;
  o.retrain.min_ticks_between = 0;
  const data::TimeSeriesFrame bootstrap = regime_trace(regime_a(), 240, 17);

  SessionSource a("arima", bootstrap, o);
  SessionSource b("arima", bootstrap, o);
  EXPECT_EQ(a.generation(), 1u);
  const ResourceForecast fa = a.forecast(bootstrap);
  const ResourceForecast fb = b.forecast(bootstrap);
  EXPECT_TRUE(std::isfinite(fa.cpu));
  EXPECT_EQ(fa.cpu, fb.cpu) << "same fit recipe, same history -> same bits";
  EXPECT_DOUBLE_EQ(fa.mem, bootstrap.column("mem_util_percent").back());

  a.refit(regime_trace(regime_b(), 240, 19));
  EXPECT_EQ(a.generation(), 2u);
}

// ---------------------------------------------------------------------------
// SchedulerLoop
// ---------------------------------------------------------------------------

std::vector<EntityTrace> storm_traces(std::size_t entities,
                                      std::size_t pre, std::size_t post,
                                      std::uint64_t seed) {
  std::vector<EntityTrace> traces;
  for (std::size_t i = 0; i < entities; ++i) {
    EntityTrace t;
    t.id = "svc-" + std::to_string(i);
    t.frame = stream::make_mutating_trace(regime_a(), regime_b(), pre, post,
                                          seed + i)
                  .frame;
    traces.push_back(std::move(t));
  }
  return traces;
}

LoopOptions small_loop_options() {
  LoopOptions o;
  o.machines = {{1.0, 1.0}, {1.0, 1.0}};
  o.bootstrap_ticks = 64;
  o.decision_interval = 4;
  o.refit_history = 256;
  o.tenant = "sched-test";
  return o;
}

TEST(SchedLoop, ClosedLoopIsDeterministic) {
  const auto run_once = [] {
    SchedulerLoop loop(storm_traces(3, 160, 80, 5), small_loop_options());
    std::vector<std::shared_ptr<ForecastSource>> sources;
    for (int i = 0; i < 3; ++i)
      sources.push_back(std::make_shared<LastValueSource>());
    return loop.run(sources);
  };
  const LoopResult r1 = run_once();
  const LoopResult r2 = run_once();

  EXPECT_GT(r1.decisions, 0u);
  EXPECT_EQ(r1.scored_ticks, 240u - 64u);
  EXPECT_EQ(r1.score.entity_ticks, 3u * (240u - 64u));
  EXPECT_EQ(r1.decisions, r2.decisions);
  EXPECT_EQ(r1.score.violations, r2.score.violations);
  EXPECT_EQ(r1.score.migrations, r2.score.migrations);
  EXPECT_EQ(r1.score.scale_events, r2.score.scale_events);
  EXPECT_EQ(r1.score.total_cost, r2.score.total_cost)
      << "bit-identical replay scores";

  // The full-range window equals the headline score.
  const ReplayScore w = r1.evaluator.score_window(0, 240);
  EXPECT_EQ(w.total_cost, r1.score.total_cost);
}

TEST(SchedLoop, UnplaceableEntitiesArePricedAsUnderProvisioned) {
  LoopOptions o = small_loop_options();
  // One sliver of a machine: regime-a demand (~25% cpu) cannot fit once
  // headroom applies, so every round reports infeasible and the unplaced
  // entities score as starved.
  o.machines = {{0.05, 0.05}};
  SchedulerLoop loop(storm_traces(2, 120, 0, 9), o);
  std::vector<std::shared_ptr<ForecastSource>> sources;
  for (int i = 0; i < 2; ++i)
    sources.push_back(std::make_shared<LastValueSource>());
  const LoopResult r = loop.run(sources);

  EXPECT_EQ(r.infeasible_packs, r.decisions);
  EXPECT_GT(r.score.under_integral, 0.0);
  EXPECT_GT(r.score.violation_rate, 0.9);
}

TEST(SchedLoop, HigherHeadroomTradesCostForViolations) {
  const auto run_with_headroom = [](double headroom) {
    LoopOptions o = small_loop_options();
    o.autoscaler.headroom = headroom;
    SchedulerLoop loop(storm_traces(3, 160, 80, 5), o);
    std::vector<std::shared_ptr<ForecastSource>> sources;
    for (int i = 0; i < 3; ++i)
      sources.push_back(std::make_shared<LastValueSource>());
    return loop.run(sources);
  };
  const LoopResult tight = run_with_headroom(1.0);
  const LoopResult slack = run_with_headroom(1.5);
  // More headroom -> fewer violations, more idle capacity: the two ends of
  // the cost/SLA frontier the bench sweeps.
  EXPECT_LT(slack.score.violation_rate, tight.score.violation_rate);
  EXPECT_GT(slack.score.over_integral, tight.score.over_integral);
}

// ---------------------------------------------------------------------------
// Fleet integration
// ---------------------------------------------------------------------------

void ingest_blocking(fleet::FleetManager& fleet, const std::string& id,
                     const data::TimeSeriesFrame& frame, std::size_t from,
                     std::size_t to) {
  const auto& cpu = frame.column("cpu_util_percent");
  const auto& mem = frame.column("mem_util_percent");
  for (std::size_t t = from; t < to; ++t) {
    for (;;) {
      const fleet::Admission verdict = fleet.ingest(id, {cpu[t], mem[t]});
      if (verdict == fleet::Admission::kAccepted) break;
      ASSERT_TRUE(verdict == fleet::Admission::kQueueFull ||
                  verdict == fleet::Admission::kBacklogFull)
          << fleet::admission_name(verdict);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

TEST(SchedFleetIntegration, FleetForecastMatchesMirroredServeBitExactly) {
  fleet::FleetOptions o;
  o.features = kFeatures;
  o.shards = 1;
  o.workers = 1;
  o.retrain.model_name = "ARIMA";
  o.retrain.history = 200;
  o.retrain.window.window = 16;
  o.retrain.window.horizon = 1;
  o.retrain.min_ticks_between = 0;
  o.retrain_on_drift = false;
  o.tenant = "sched-fleet-bit";

  const data::TimeSeriesFrame bootstrap = regime_trace(regime_a(), 240, 11);
  const data::TimeSeriesFrame live = regime_trace(regime_b(), 40, 13);

  fleet::FleetManager manager(o);
  fleet::EntitySpec spec;
  spec.id = "svc-0";
  spec.cohort = "web";
  spec.model.name = "ARIMA";
  manager.add_entity(spec);
  const stream::RetrainOutcome boot =
      manager.bootstrap_cohort("web", bootstrap);
  ASSERT_TRUE(boot.error.empty()) << boot.error;
  ingest_blocking(manager, "svc-0", live, 0, live.length());
  manager.drain();

  const fleet::EntityStats stats = manager.entity_stats("svc-0");
  ASSERT_TRUE(stats.has_forecast);

  // Mirror the fleet's bootstrap fit: scratch channel replay, trailing
  // span, fit_generation_gated under the same options — bit-identical by
  // the retrain layer's determinism guarantee.
  stream::IngestChannel scratch(kFeatures, o.channel);
  scratch.replay(bootstrap);
  const std::size_t retained =
      std::min(scratch.ticks(), o.channel.capacity);
  const std::size_t span = std::min(o.retrain.history, retained);
  stream::RetrainOptions ro = o.retrain;
  ro.model_name = spec.model.name;
  ro.model = spec.model.config;
  const stream::FittedGeneration g = stream::fit_generation_gated(
      scratch.history(span), scratch.normalizer(), ro, 1, "bootstrap:web",
      "web");
  ASSERT_NE(g.session, nullptr) << g.outcome.error;

  // Mirror the entity's channel: bootstrap seed + live rows, then serve
  // the trailing window exactly as FleetManager::prepare_tick does.
  stream::IngestChannel mirror(kFeatures, o.channel);
  mirror.replay(bootstrap);
  if (o.freeze_normalizer_at_bootstrap) mirror.freeze_normalizer();
  mirror.replay(live);
  const Tensor window = mirror.latest_window(o.retrain.window.window);
  Tensor batched({1, window.dim(0), window.dim(1)});
  std::copy(window.raw(), window.raw() + window.size(), batched.raw());
  const Tensor out = g.session->run(batched);
  const double expected_norm = static_cast<double>(out.raw()[0]);

  EXPECT_EQ(stats.last_forecast_norm, expected_norm)
      << "fleet forecast must be bit-identical to the mirrored serve";
  EXPECT_EQ(stats.last_forecast_raw,
            mirror.normalizer().denormalize(0, expected_norm));

  // The bulk read the allocator consumes exposes the same bits.
  const std::vector<fleet::EntityForecast> all = manager.latest_forecasts();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].entity, "svc-0");
  EXPECT_EQ(all[0].predicted_norm, expected_norm);
  EXPECT_EQ(all[0].predicted_raw, stats.last_forecast_raw);
}

}  // namespace
}  // namespace rptcn::sched
