// End-to-end benchmark driver: runs one workload for a fixed wall-clock
// window and prints one JSON object as the last line of stdout.
//
//   perfbench_driver --workload <fleet|drift> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <path>]
//
// Both workloads drive one FleetManager serving the paper's RPTCN (channels
// {16,16,16}, kernel 3, window 24) in 4 cohorts through 4 ingest workers and
// 4 engine shards, and close the scheduling loop on its forecasts. The loop
// is closed: ticks arrive in rounds, one per entity like a metrics scrape,
// and the next round is sent once the fleet has drained and the allocator
// has decided. One round is
//
//   ingest one tick per entity -> drain (every forecast delivered)
//   -> replay: score the allocations committed last round against this
//      round's actual cpu/mem (sched::ReplayEvaluator)
//   -> decide: the fleet's newest forecasts -> sched::Autoscaler ->
//      first-fit-decreasing sched::ClusterModel::pack
//
// One operation is one tick, timed by the fleet from admission to forecast
// delivery: mailbox wait, normalise, drift update, engine queue wait and the
// planned forward.
//
//  fleet  256 entities on calm traces with retraining off: serving and
//         allocation only, no fit competes for the cores.
//  drift  128 entities whose traces flip regime every 64 ticks. Detectors
//         fire and the retrain scheduler keeps its two fit slots busy with
//         paper-shape planned-step RPTCN refits, which compete with serving
//         for the cores.
//
// Set-up (fleet build plus one bootstrap fit per cohort) runs nine times;
// the median is reported. With --trace 0 the metrics are the end-to-end
// ones, measured with the obs registry off. --trace 1 turns the registry on
// and reports per-layer metrics over the same measured window instead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fleet/builder.h"
#include "fleet/manager.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sched/autoscaler.h"
#include "sched/cluster.h"
#include "sched/replay.h"
#include "stream/source.h"

namespace rptcn::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kSetups = 9;
/// Slice length for the end-to-end statistics (see end_to_end_metrics).
constexpr double kSliceSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Registry deltas over the measured window, tenant labels rolled up. Only
/// meaningful while the obs registry is enabled (--trace 1).
class LayerWindow {
 public:
  void begin() {
    if (obs::enabled()) begin_ = snapshot();
  }
  void end() {
    if (obs::enabled()) end_ = snapshot();
  }

  double counter(const std::string& name) const {
    return static_cast<double>(find(end_.counters, name) -
                               find(begin_.counters, name));
  }
  double gauge(const std::string& name) const {
    for (const auto& [n, v] : end_.gauges)
      if (n == name) return v;
    return 0.0;
  }
  /// Values recorded into histogram `name` during the window.
  double count(const std::string& name) const {
    return static_cast<double>(hist(end_, name).count -
                               hist(begin_, name).count);
  }
  /// Mean recorded value (0 when nothing was recorded).
  double mean(const std::string& name) const {
    const double n = count(name);
    return n > 0.0 ? (hist(end_, name).sum - hist(begin_, name).sum) / n
                   : 0.0;
  }

 private:
  static obs::MetricsSnapshot snapshot() {
    return obs::rollup_tenants(obs::metrics().snapshot());
  }
  static std::uint64_t find(
      const std::vector<std::pair<std::string, std::uint64_t>>& v,
      const std::string& name) {
    for (const auto& [n, x] : v)
      if (n == name) return x;
    return 0;
  }
  static obs::HistogramSnapshot hist(const obs::MetricsSnapshot& s,
                                     const std::string& name) {
    for (const auto& [n, h] : s.histograms)
      if (n == name) return h;
    return {};
  }

  obs::MetricsSnapshot begin_;
  obs::MetricsSnapshot end_;
};

/// One workload run, as the reporter needs it.
struct Run {
  std::vector<double> setup_seconds;  ///< one per repeated set-up
  std::vector<double> op_seconds;     ///< latency of each measured operation
  /// When each operation completed, in seconds since the window opened.
  std::vector<double> op_end;
  double window_seconds = 0.0;        ///< wall time of the measured window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;    ///< output checks that did not hold
  LayerWindow layers;
  /// Per-layer metrics the driver measures itself, around its calls into a
  /// layer (only filled on --trace 1).
  std::map<std::string, double> spans;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

constexpr std::size_t kCohorts = 4;
constexpr std::size_t kBootstrapTicks = 240;
/// Live rows per cohort trace; rounds replay them cyclically.
constexpr std::size_t kLiveTicks = 2048;
constexpr std::size_t kStormPeriod = 64;
/// Unmeasured rounds: serving plans are captured, caches fill and, under
/// storms, the first detectors fire and the retrain queue fills.
constexpr std::size_t kWarmupRounds = 24;

struct Shape {
  std::size_t entities = 0;
  bool storms = false;  ///< regime flips every kStormPeriod + retrain on drift
};

trace::WorkloadParams calm_regime() {
  trace::WorkloadParams p;
  p.base_level = 0.25;
  p.diurnal_amplitude = 0.02;
  p.noise_sigma = 0.03;
  p.ar_coefficient = 0.85;
  p.mutation_rate = 0.0;
  p.burst_rate = 0.0;
  return p;
}

trace::WorkloadParams storm_regime() {
  trace::WorkloadParams p = calm_regime();
  p.base_level = 0.65;
  p.noise_sigma = 0.08;
  p.ar_coefficient = 0.55;
  return p;
}

/// One cohort's trace: the bootstrap history, then kLiveTicks live rows.
data::TimeSeriesFrame cohort_trace(const Shape& shape, std::uint64_t seed) {
  std::vector<stream::RegimeSegment> segments;
  if (!shape.storms) {
    segments.push_back({calm_regime(), kBootstrapTicks + kLiveTicks});
  } else {
    segments.push_back({calm_regime(), kBootstrapTicks});
    for (std::size_t t = 0; t < kLiveTicks; t += kStormPeriod)
      segments.push_back(
          {(t / kStormPeriod) % 2 == 0 ? storm_regime() : calm_regime(),
           kStormPeriod});
  }
  return stream::make_regime_trace(segments, seed).frame;
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

/// The paper's RPTCN shape. patience == max_epochs: every fit runs all its
/// epochs, so the cost of a bootstrap or a retrain does not depend on the
/// generated data.
models::ForecasterSpec cohort_model(std::size_t cohort) {
  models::ForecasterSpec spec;
  spec.name = "RPTCN";
  spec.config.nn.max_epochs = 3;
  spec.config.nn.patience = 3;
  spec.config.nn.batch_size = 32;
  spec.config.nn.seed = 9 + cohort;
  spec.config.rptcn.tcn.channels = {16, 16, 16};
  spec.config.rptcn.tcn.kernel_size = 3;
  spec.config.rptcn.fc_dim = 16;
  return spec;
}

fleet::FleetOptions fleet_options(const Shape& shape) {
  fleet::FleetOptions o;
  o.features = {"cpu_util_percent", "mem_util_percent"};
  o.shards = 4;
  o.workers = 4;
  o.retrain_workers = 2;
  o.retrain_on_drift = shape.storms;
  // A whole round fits under both admission bounds, so no tick is shed.
  o.max_queued_ticks = shape.entities;
  o.max_entity_backlog = 2;
  o.channel.capacity = 512;
  o.freeze_normalizer_at_bootstrap = true;
  o.retrain.history = kBootstrapTicks;
  o.retrain.window.window = 24;
  o.retrain.window.horizon = 1;
  o.retrain.min_ticks_between = 32;
  o.drift.input_ph.delta = 0.2;
  o.drift.input_ph.lambda = 4.0;
  o.drift.input_ph.min_samples = 10;
  o.drift.residual_ph.delta = 0.1;
  o.drift.residual_ph.lambda = 3.0;
  o.drift.windowed.ratio_threshold = 4.0;
  o.drift.windowed.level_threshold = 0.0;
  o.drift.windowed.short_window = 16;
  o.engine.max_batch = 64;
  o.engine.max_delay_us = 200;
  o.tenant = "perfbench";
  return o;
}

std::string cohort_name(std::size_t c) {
  return "cohort-" + std::to_string(c);
}

/// FleetBuilder::add_cohort names member i "<prefix><i>".
std::string entity_prefix(std::size_t c) {
  return "c" + std::to_string(c) + "-";
}

std::unique_ptr<fleet::FleetManager> build_fleet(
    const Shape& shape, const std::vector<data::TimeSeriesFrame>& traces) {
  fleet::FleetBuilder builder;
  builder.options(fleet_options(shape));
  for (std::size_t c = 0; c < kCohorts; ++c)
    builder.add_cohort(cohort_name(c), cohort_model(c),
                       shape.entities / kCohorts, entity_prefix(c));
  auto fleet = builder.build();
  for (std::size_t c = 0; c < kCohorts; ++c) {
    const stream::RetrainOutcome out = fleet->bootstrap_cohort(
        cohort_name(c), traces[c].slice(0, kBootstrapTicks));
    if (!out.error.empty())
      throw std::runtime_error("bootstrap of " + cohort_name(c) +
                               " failed: " + out.error);
  }
  return fleet;
}

// ---------------------------------------------------------------------------
// Closed-loop allocation on the fleet's forecasts
// ---------------------------------------------------------------------------

/// Demand as a fraction of one machine: the traces emit utilisation percent.
double percent_to_fraction(double percent) {
  return std::max(percent, 0.0) / 100.0;
}

class Allocator {
 public:
  /// One machine per entity, so every pack is feasible by construction; a
  /// packer that failed to place an entity is a correctness failure.
  explicit Allocator(std::size_t entities)
      : scaler_(options()),
        cluster_(std::vector<sched::MachineSpec>(entities)) {}

  /// Replay: score the allocations committed last round against `actual`
  /// (raw cpu/mem percent per entity id) at `tick`.
  void replay(std::size_t tick,
              const std::unordered_map<std::string, sched::ResourceForecast>&
                  actual) {
    for (const auto& [id, a] : live_) {
      const sched::ResourceForecast& raw = actual.at(id);
      evaluator_.observe(tick, {percent_to_fraction(raw.cpu),
                                percent_to_fraction(raw.mem)},
                         a);
    }
  }

  /// Decide: forecast cpu (raw percent) plus last observed mem -> headroom
  /// -> pack. Returns false when the packer left an entity unplaced.
  bool decide(const std::vector<fleet::EntityForecast>& forecasts,
              const std::unordered_map<std::string, sched::ResourceForecast>&
                  actual,
              double* pack_seconds) {
    std::vector<sched::Allocation> allocations;
    allocations.reserve(forecasts.size());
    for (const fleet::EntityForecast& f : forecasts)
      allocations.push_back(scaler_.decide(
          f.entity, {percent_to_fraction(f.predicted_raw),
                     percent_to_fraction(actual.at(f.entity).mem)}));
    const auto t0 = Clock::now();
    const sched::PackResult pack = cluster_.pack(allocations);
    *pack_seconds += since(t0);
    migrations_ += pack.migrations;
    for (const sched::Allocation& a : allocations) live_[a.entity] = a;
    return pack.feasible;
  }

  /// True when no machine carries more than its capacity.
  bool within_capacity() const {
    for (std::size_t m = 0; m < cluster_.machines(); ++m)
      if (cluster_.cpu_used(m) > 1.0 + 1e-9 ||
          cluster_.mem_used(m) > 1.0 + 1e-9)
        return false;
    return true;
  }

  sched::ReplayScore score() const { return evaluator_.score(); }
  std::size_t migrations() const { return migrations_; }
  std::size_t scale_events() const { return scaler_.scale_events(); }

 private:
  static sched::AutoscalerOptions options() {
    sched::AutoscalerOptions o;
    o.headroom = 1.3;
    return o;
  }

  sched::Autoscaler scaler_;
  sched::ClusterModel cluster_;
  sched::ReplayEvaluator evaluator_;
  std::unordered_map<std::string, sched::Allocation> live_;
  std::size_t migrations_ = 0;
};

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

Run run_fleet(const Args& args, const Shape& shape) {
  Run run;
  std::vector<data::TimeSeriesFrame> traces;
  for (std::size_t c = 0; c < kCohorts; ++c)
    traces.push_back(cohort_trace(shape, args.seed * 1000 + c));

  std::unique_ptr<fleet::FleetManager> fleet;
  for (int k = 0; k < kSetups; ++k) {
    fleet.reset();
    const auto t0 = Clock::now();
    fleet = build_fleet(shape, traces);
    run.setup_seconds.push_back(since(t0));
  }

  const std::size_t per_cohort = shape.entities / kCohorts;
  std::vector<std::vector<std::string>> ids(kCohorts);
  for (std::size_t c = 0; c < kCohorts; ++c)
    for (std::size_t i = 0; i < per_cohort; ++i)
      ids[c].push_back(entity_prefix(c) + std::to_string(i));

  Allocator allocator(shape.entities);
  std::unordered_map<std::string, sched::ResourceForecast> actual;
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::size_t infeasible = 0;
  double admission_seconds = 0.0;
  double drain_seconds = 0.0;
  double decide_seconds = 0.0;
  double pack_seconds = 0.0;
  const auto serve_round = [&](std::size_t round) {
    const std::size_t row = kBootstrapTicks + round % kLiveTicks;
    for (std::size_t c = 0; c < kCohorts; ++c) {
      const double cpu = traces[c].column("cpu_util_percent")[row];
      const double mem = traces[c].column("mem_util_percent")[row];
      for (const std::string& id : ids[c]) {
        const auto t0 = Clock::now();
        const fleet::Admission verdict = fleet->ingest(id, {cpu, mem});
        if (args.trace) admission_seconds += since(t0);
        ++offered;
        if (verdict != fleet::Admission::kAccepted) ++shed;
        actual[id] = {cpu, mem};
      }
    }
    auto t0 = Clock::now();
    fleet->drain();
    drain_seconds += since(t0);

    t0 = Clock::now();
    allocator.replay(round, actual);
    if (!allocator.decide(fleet->latest_forecasts(), actual, &pack_seconds))
      ++infeasible;
    decide_seconds += since(t0);
  };

  std::size_t round = 0;
  for (; round < kWarmupRounds; ++round) serve_round(round);
  offered = 0;
  shed = 0;
  admission_seconds = drain_seconds = decide_seconds = pack_seconds = 0.0;
  const std::size_t migrations0 = allocator.migrations();
  const std::size_t scale_events0 = allocator.scale_events();
  const sched::ReplayScore score0 = allocator.score();

  const fleet::FleetStats s0 = fleet->stats();
  const std::size_t lat0 = fleet->latencies_seconds().size();
  std::size_t rounds = 0;
  std::vector<double> round_end;
  run.layers.begin();
  const auto w0 = Clock::now();
  while (since(w0) < args.seconds) {
    serve_round(round++);
    ++rounds;
    round_end.push_back(since(w0));
  }
  run.window_seconds = since(w0);
  run.layers.end();
  const fleet::FleetStats s1 = fleet->stats();
  const std::vector<double> lat = fleet->latencies_seconds();
  run.op_seconds.assign(lat.begin() + static_cast<std::ptrdiff_t>(lat0),
                        lat.end());
  // drain() separates rounds, so the samples arrive round by round, one per
  // entity (checked below through offered == forecasts).
  for (const double t : round_end)
    run.op_end.insert(run.op_end.end(), shape.entities, t);

  // -- Output checks --------------------------------------------------------
  const std::uint64_t accepted = s1.ticks_accepted - s0.ticks_accepted;
  const std::uint64_t forecasts = s1.forecasts - s0.forecasts;
  const std::uint64_t forecast_failures =
      s1.forecast_failures - s0.forecast_failures;
  run.attempted = offered;
  run.failed = shed + (accepted > forecasts ? accepted - forecasts : 0) +
               forecast_failures;
  run.check(offered == accepted + shed, "ticks offered != accepted + shed");
  run.check(run.op_seconds.size() == forecasts &&
                run.op_end.size() == forecasts,
            "latency samples != forecasts delivered");
  run.check(s1.ticks_dropped == 0, "complete ticks were dropped");
  // Every entity's newest forecast is a plausible cpu utilisation: finite and
  // within one full range of the 0-100 scale. This catches a serving path
  // that returns garbage; forecast accuracy is not this benchmark's subject.
  std::size_t plausible = 0;
  const std::vector<fleet::EntityForecast> latest = fleet->latest_forecasts();
  for (const fleet::EntityForecast& f : latest)
    if (std::isfinite(f.predicted_norm) && f.predicted_raw > -100.0 &&
        f.predicted_raw < 200.0)
      ++plausible;
  run.check(latest.size() == shape.entities && plausible == latest.size(),
            "some entity has no plausible forecast");
  const std::uint64_t retrains = s1.retrains_completed - s0.retrains_completed;
  if (shape.storms) {
    run.check(s1.drift_events > s0.drift_events, "the storm fired no drift");
    run.check(retrains > 0, "the storm completed no retrain");
    run.check(s1.retrains_failed == s0.retrains_failed, "a retrain failed");
  } else {
    run.check(s1.retrains_completed == 0, "a retrain ran with retraining off");
    run.check(s1.unique_snapshots == kCohorts,
              "cohort members no longer share one snapshot");
  }
  run.check(infeasible == 0, "the packer left an entity unplaced");
  run.check(allocator.within_capacity(),
            "a machine is loaded past its capacity");
  const sched::ReplayScore score = allocator.score();
  run.check(score.entity_ticks == (round - 1) * shape.entities &&
                std::isfinite(score.total_cost) && score.total_cost > 0.0,
            "replay did not score every entity-tick of every decided round");

  if (args.trace) {
    const double n = static_cast<double>(rounds);
    const double window_ticks =
        static_cast<double>(score.entity_ticks - score0.entity_ticks);
    run.spans = {
        {"tick_admission_us",
         offered > 0 ? admission_seconds / static_cast<double>(offered) * 1e6
                     : 0.0},
        {"round_drain_ms", drain_seconds / n * 1e3},
        {"sched_decide_ms", decide_seconds / n * 1e3},
        {"sched_pack_ms", pack_seconds / n * 1e3},
        {"sched_migrations",
         static_cast<double>(allocator.migrations() - migrations0)},
        {"sched_scale_events",
         static_cast<double>(allocator.scale_events() - scale_events0)},
        {"sched_violation_rate",
         window_ticks > 0.0
             ? static_cast<double>(score.violations - score0.violations) /
                   window_ticks
             : 0.0},
    };
  }
  std::cerr << "[" << args.workload << "] " << rounds << " rounds, "
            << forecasts << " forecasts, " << retrains << " retrains, "
            << s1.drift_events - s0.drift_events << " drift events, "
            << "violation rate " << score.violation_rate << "\n";
  return run;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Quantile of a sample, interpolating between order statistics.
double quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void log_slices(const char* name, const std::vector<double>& values) {
  std::cerr << "per-slice " << name << ":";
  for (const double v : values) std::cerr << " " << v;
  std::cerr << "\n";
}

/// The measured window is cut into slices of about kSliceSeconds and each
/// metric is computed per slice. Interference from outside the process
/// (other tenants of a shared host) only ever slows a slice down, and it
/// comes in episodes of several seconds, so even the median over slices
/// moves with it. The reported value is the quartile on the fast side: the
/// 25th percentile of per-slice latencies and the 75th of per-slice rates.
std::vector<Metric> end_to_end_metrics(const Run& run) {
  const std::size_t slices = static_cast<std::size_t>(
      std::max(1.0, std::round(run.window_seconds / kSliceSeconds)));
  const double width = run.window_seconds / static_cast<double>(slices);
  std::vector<std::vector<double>> by_slice(slices);
  std::vector<double> last_end(slices, 0.0);
  for (std::size_t i = 0; i < run.op_seconds.size(); ++i) {
    const std::size_t s = std::min(
        static_cast<std::size_t>(run.op_end[i] / width), slices - 1);
    by_slice[s].push_back(run.op_seconds[i]);
    last_end[s] = std::max(last_end[s], run.op_end[i]);
  }
  // A slice's rate is its operations over the time from the previous
  // completion to its own last one, so whole rounds of ticks do not quantise
  // it to the number of rounds that fit in a slice.
  std::vector<double> p50, p90, rate;
  double previous_end = 0.0;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::vector<double>& ops = by_slice[s];
    if (ops.empty()) continue;
    rate.push_back(static_cast<double>(ops.size()) /
                   (last_end[s] - previous_end));
    previous_end = last_end[s];
    p50.push_back(quantile(ops, 0.50) * 1e3);
    p90.push_back(quantile(ops, 0.90) * 1e3);
  }
  if (p50.empty()) throw std::runtime_error("no operation completed");
  log_slices("p50_ms", p50);
  log_slices("p90_ms", p90);
  log_slices("ops_per_s", rate);
  return {
      {"p50_ms", quantile(p50, 0.25), "ms"},
      {"p90_ms", quantile(p90, 0.25), "ms"},
      {"ops_per_s", quantile(rate, 0.75), "1/s"},
      {"setup_s", quantile(run.setup_seconds, 0.5), "s"},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run) {
  const LayerWindow& w = run.layers;
  const auto span = [&](const char* name) {
    const auto it = run.spans.find(name);
    return it == run.spans.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(run.op_seconds.size());
  double op_sum = 0.0;
  for (const double s : run.op_seconds) op_sum += s;
  const double pool_hits = w.counter("tensor_pool/hits");
  const double pool_total = pool_hits + w.counter("tensor_pool/misses");
  // Tick time outside the engine: mailbox wait, normalise, drift update.
  const double tick_self = ops > 0.0 ? op_sum / ops -
                                           w.mean("serve/queue_wait_seconds") -
                                           w.mean("serve/forward_seconds")
                                     : 0.0;
  return {
      {"ops", ops, "count"},
      {"tick_admission_us", span("tick_admission_us"), "us"},
      {"round_drain_ms", span("round_drain_ms"), "ms"},
      {"tick_self_ms", tick_self * 1e3, "ms"},
      {"engine_queue_wait_ms", w.mean("serve/queue_wait_seconds") * 1e3, "ms"},
      {"engine_forward_ms", w.mean("serve/forward_seconds") * 1e3, "ms"},
      {"engine_batch_size", w.mean("serve/batch_size"), "count"},
      {"engine_batches", w.counter("serve/batches"), "count"},
      {"plan_replays", w.counter("graph/replays"), "count"},
      {"plan_cache_misses", w.counter("graph/plan_cache_misses"), "count"},
      {"drift_events", w.counter("fleet/drift_events"), "count"},
      {"retrains", w.counter("fleet/retrains_total"), "count"},
      {"retrain_failures", w.counter("fleet/retrain_failures_total"), "count"},
      {"retrain_fit_ms", w.mean("fleet/retrain_seconds") * 1e3, "ms"},
      {"retrain_queue_rejected", w.counter("fleet/retrain_queue_rejected"),
       "count"},
      {"trainer_epochs", w.counter("trainer/epochs_total"), "count"},
      {"train_step_replays", w.counter("graph/train_replays"), "count"},
      {"train_step_fallbacks", w.counter("graph/train_fallbacks"), "count"},
      {"train_arena_kib", w.gauge("graph/train_arena_bytes") / 1024.0, "KiB"},
      {"pool_hit_rate", pool_total > 0.0 ? pool_hits / pool_total : 0.0,
       "ratio"},
      {"gemm_calls", w.counter("kernel/gemm_calls"), "count"},
      {"gemm_gflop", w.counter("kernel/gemm_flops") / 1e9, "GFLOP"},
      {"sched_decide_ms", span("sched_decide_ms"), "ms"},
      {"sched_pack_ms", span("sched_pack_ms"), "ms"},
      {"sched_migrations", span("sched_migrations"), "count"},
      {"sched_scale_events", span("sched_scale_events"), "count"},
      {"sched_violation_rate", span("sched_violation_rate"), "ratio"},
  };
}

void print_result(const Args& args, const Run& run) {
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(run) : end_to_end_metrics(run);
  bool finite = true;
  std::string body;
  char buf[96];
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) finite = false;
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  for (const std::string& e : run.errors)
    std::cerr << "check failed: " << e << "\n";
  const bool correct = finite && run.errors.empty() && run.failed == 0 &&
                       !run.op_seconds.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"metrics\": {" << body
            << "}}" << std::endl;
}

Run dispatch(const Args& args) {
  if (args.workload == "fleet") return run_fleet(args, {256, false});
  if (args.workload == "drift") return run_fleet(args, {128, true});
  throw std::invalid_argument("unknown workload: " + args.workload);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      a.workload = value;
    else if (flag == "--seed")
      a.seed = std::stoull(value);
    else if (flag == "--seconds")
      a.seconds = std::stod(value);
    else if (flag == "--trace")
      a.trace = value == "1";
    else if (flag == "--trace-out")
      a.trace_out = value;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace
}  // namespace rptcn::perfbench

int main(int argc, char** argv) {
  using namespace rptcn::perfbench;
  try {
    const Args args = parse(argc, argv);
    rptcn::obs::set_enabled(args.trace);
    const Run run = dispatch(args);
    if (args.trace && !args.trace_out.empty())
      rptcn::obs::write_snapshot(args.trace_out);
    print_result(args, run);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
