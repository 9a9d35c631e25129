// Streaming bench: the online adaptation loop vs a frozen snapshot on a
// replayed trace with a known regime mutation.
//
// The trace is `--pre` ticks of one workload regime followed by `--post`
// ticks of a visibly different one (higher level, different AR dynamics) —
// the high-dynamic scenario the paper targets. Each run serves the trace as
// a one-entity fleet: bootstrap_cohort fits generation 1 on the first
// `warmup` rows, then every later row is one tick (ingest + drain). Two
// runs replay the identical trace:
//
//  * static   — never retrains, with the min-max scaler frozen at
//               bootstrap: a real batch deployment ships weights and scaler
//               pinned together.
//  * adaptive — online normalisation plus armed drift detectors; on a fire
//               the fleet re-fits on the trailing window in the background
//               and installs the result.
//
// One-step residuals are measured in raw target units (each fleet
// denormalises its own forecast when it issues it), so the post-mutation
// MSE ratio is fair regardless of normalisation policy. Reported per run:
// pre/post-drift MSE, tick-to-forecast p50/p99, installed retrains,
// generation, staleness; for the adaptive run additionally detection delay
// and retrain latency.
//
// Emits BENCH_streaming.json (override with --out <path>). CI runs a short
// replay and asserts adaptive_beats_static_post_drift.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "fleet/builder.h"
#include "obs/metrics.h"
#include "stream/source.h"

namespace rptcn {
namespace {

constexpr const char* kEntity = "stream";

struct BenchConfig {
  std::size_t pre = 1200;   ///< ticks before the regime mutation
  std::size_t post = 800;   ///< ticks after it
  std::uint64_t seed = 3;
  /// Emulated sampling interval. The replay is paced so retrain latency and
  /// staleness are measured relative to stream time, as in a live system —
  /// an unpaced replay finishes 600 ticks in the wall time of one fit,
  /// which no deployment resembles (real cloud sampling is seconds apart,
  /// so a fit spans a handful of ticks, not hundreds). 0 = CPU speed.
  std::size_t tick_us = 10000;
  std::string out = "BENCH_streaming.json";
  std::string dump;         ///< optional per-tick residual CSV
};

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

// The mutated regime: a +0.2 sustained level shift (the magnitude of the
// simulator's own Fig.-8-style mutation points, uniform(0.15, 0.45)) with
// noisier, less persistent dynamics. Keeping base_level moderate matters:
// the workload model's Markov chain ramps to 1.6x base, so a high base
// saturates the series at its ceiling and the scripted mutation drowns in
// endogenous swings.
trace::WorkloadParams regime_b() {
  trace::WorkloadParams p = regime_a();
  p.base_level = 0.45;
  p.diurnal_amplitude = 0.05;
  p.noise_sigma = 0.05;
  p.ar_coefficient = 0.65;
  return p;
}

/// Bootstrap on regime-A data only, well before the mutation, so both runs
/// start from the same frozen snapshot of the old regime.
std::size_t warmup_ticks(std::size_t pre) {
  return std::min<std::size_t>(400, pre / 2 > 64 ? pre / 2 : 64);
}

models::ForecasterSpec model_spec() {
  models::ForecasterSpec spec;
  spec.name = "RPTCN";
  // Default 40-epoch recipe: retrains run in the background, so a properly
  // converged fit (a few hundred ms) costs ingest nothing.
  spec.config.nn.seed = 9;
  spec.config.rptcn.tcn.channels = {8, 8};
  spec.config.rptcn.fc_dim = 8;
  return spec;
}

fleet::FleetOptions fleet_options(bool adaptive) {
  fleet::FleetOptions opt;
  opt.features = {"cpu_util_percent", "mem_util_percent", "net_in", "net_out"};
  opt.shards = 1;
  opt.workers = 1;
  opt.retrain_workers = 1;
  // A lone stream has no peers to coalesce with.
  opt.engine.max_delay_us = 0;
  opt.channel.capacity = 2048;
  // Trailing history long enough to span several segments of the workload's
  // endogenous regime chain (dwell times 30-600 ticks): a fit that sees
  // idle, steady and ramp levels learns the window dynamics, while a
  // single-segment fit memorises one level and collapses out-of-distribution
  // the moment the chain flips.
  opt.retrain.history = 512;
  opt.retrain.window.window = 24;
  opt.retrain.window.horizon = 1;
  // Short cooldown: a fire inside it is latched and filed once it expires,
  // and the scheduler never runs two fits for one entity, so the cooldown
  // only needs to stop trigger storms; a long one delays the post-mutation
  // correction.
  opt.retrain.min_ticks_between = 32;
  // Quality gate: in-regime fits validate at 0.003-0.03 normalised; a fit
  // an order of magnitude above that is a bad basin, not a hard window.
  opt.retrain.max_valid_loss = 0.03;
  opt.retrain.fit_attempts = 3;
  // Detector tuning for this workload's scale. The residual Page-Hinkley
  // and window-ratio defaults are tight enough to fire on ordinary
  // stochastic wobble, and a false fire is costly here: it occupies the
  // fit slot with a stale-regime fit exactly when the real mutation needs
  // it. Slack sits above the in-regime residual level (~0.1 normalised).
  opt.drift.residual_ph.delta = 0.05;
  opt.drift.residual_ph.lambda = 0.5;
  opt.drift.windowed.ratio_threshold = 3.0;
  // Absolute backstop: a generation that is consistently wrong (e.g. one
  // trained just before an unscripted level shift in the simulator) keeps
  // its residuals high but *stationary*, which neither Page-Hinkley nor the
  // ratio test can see. In-regime residuals sit near 0.1 normalised.
  opt.drift.windowed.level_threshold = 0.3;
  // The level test needs only short_window samples after an install resets
  // the detectors — a small window halves the exposure of a bad generation.
  opt.drift.windowed.short_window = 16;
  // The per-input Page-Hinkley default is tuned for residuals; on raw
  // normalised indicators the diurnal wander would trip it constantly, so
  // the input channel only reacts to genuine level moves.
  opt.drift.input_ph.lambda = 2.0;
  opt.drift.input_ph.delta = 0.02;
  opt.retrain_on_drift = adaptive;
  // The static baseline is a *real* frozen deployment: weights and scaler
  // pinned together at bootstrap. Leaving the min-max scaler online would
  // keep re-mapping the post-mutation range into [0,1] — covert input
  // adaptation no batch-trained deployment gets. Residuals are compared in
  // raw target units, which are policy-independent.
  opt.freeze_normalizer_at_bootstrap = !adaptive;
  opt.tenant = adaptive ? "stream-adaptive" : "stream-static";
  return opt;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

struct RunReport {
  double wall_seconds = 0.0;
  std::size_t ticks = 0;              ///< rows consumed, bootstrap included
  std::size_t residuals_pre = 0;
  std::size_t residuals_post = 0;
  double mse_pre = 0.0;
  double mse_post = 0.0;
  double latency_p50_s = 0.0;         ///< tick admission to forecast
  double latency_p99_s = 0.0;
  std::uint64_t generation = 0;
  std::uint64_t drift_events = 0;
  std::size_t first_drift_tick = 0;   ///< first fire after the mutation
  std::uint64_t retrains = 0;         ///< generations installed past 1
  std::uint64_t retrain_failures = 0; ///< fit errors + refused installs
  std::uint64_t fits = 0;             ///< background retrain fits run
  double retrain_mean_s = 0.0;
  double staleness_mean = 0.0;
  std::size_t staleness_max = 0;
};

RunReport replay(const data::TimeSeriesFrame& trace, bool adaptive,
                 std::size_t pre, std::size_t tick_us,
                 const std::string& dump_path = {}) {
  const fleet::FleetOptions options = fleet_options(adaptive);
  fleet::EntitySpec spec;
  spec.id = kEntity;
  spec.model = model_spec();
  auto fleet = fleet::FleetBuilder().options(options).add_entity(spec).build();

  // An id-only entity is a private cohort of one, named after itself.
  const std::size_t warmup = warmup_ticks(pre);
  const stream::RetrainOutcome boot =
      fleet->bootstrap_cohort(kEntity, trace.slice(0, warmup));
  if (!boot.error.empty())
    throw std::runtime_error("bootstrap fit failed: " + boot.error);
  // The bootstrap fit is already in the histogram; only later fits count.
  obs::Histogram& fit_hist =
      obs::metrics().histogram("fleet/retrain_seconds", options.tenant);
  const obs::HistogramSnapshot fits_before = fit_hist.snapshot();

  std::ofstream dump;
  if (!dump_path.empty()) {
    dump.open(dump_path);
    dump << "tick,actual_raw,predicted_raw,residual_raw,generation,drift\n";
  }

  std::vector<const std::vector<double>*> cols;
  for (const std::string& name : options.features)
    cols.push_back(&trace.column(name));
  std::vector<double> row(cols.size());

  RunReport r;
  r.ticks = trace.length();
  double sq_pre = 0.0;
  double sq_post = 0.0;
  std::optional<fleet::EntityForecast> due;  ///< forecast of the next tick
  std::uint64_t generation = 1;
  std::uint64_t drift_seen = 0;
  std::size_t last_install_tick = warmup;
  double staleness_sum = 0.0;
  Stopwatch wall;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = warmup; t < trace.length(); ++t) {
    const std::size_t tick = t + 1;  // 1-based, bootstrap rows included
    if (tick_us > 0)
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(tick_us) * (t - warmup + 1));
    for (std::size_t f = 0; f < cols.size(); ++f) row[f] = (*cols[f])[t];
    const fleet::Admission verdict = fleet->ingest(kEntity, row);
    if (verdict != fleet::Admission::kAccepted)
      throw std::runtime_error(std::string("tick not admitted: ") +
                               fleet::admission_name(verdict));
    fleet->drain();

    const fleet::EntityStats s = fleet->entity_stats(kEntity);
    const bool drift = s.drift_events > drift_seen;
    drift_seen = s.drift_events;
    if (drift && tick > pre && r.first_drift_tick == 0)
      r.first_drift_tick = tick;
    if (s.generation != generation) {
      generation = s.generation;
      last_install_tick = tick;
      std::cout << "  [retrain] generation " << generation << " live at tick "
                << tick << "\n";
    }
    const std::size_t staleness = tick - last_install_tick;
    staleness_sum += static_cast<double>(staleness);
    r.staleness_max = std::max(r.staleness_max, staleness);

    if (due.has_value() && due->tick + 1 == s.ticks) {
      const double actual = (*cols[0])[t];
      const double residual = std::abs(actual - due->predicted_raw);
      if (dump.is_open())
        dump << tick << ',' << actual << ',' << due->predicted_raw << ','
             << residual << ',' << due->generation << ',' << (drift ? 1 : 0)
             << '\n';
      if (tick > pre) {
        sq_post += residual * residual;
        ++r.residuals_post;
      } else {
        sq_pre += residual * residual;
        ++r.residuals_pre;
      }
    }
    const std::vector<fleet::EntityForecast> latest =
        fleet->latest_forecasts();
    due.reset();
    if (!latest.empty()) due = latest.front();
  }
  fleet->scheduler().wait_idle();
  r.wall_seconds = wall.elapsed_seconds();

  if (r.residuals_pre > 0)
    r.mse_pre = sq_pre / static_cast<double>(r.residuals_pre);
  if (r.residuals_post > 0)
    r.mse_post = sq_post / static_cast<double>(r.residuals_post);
  std::vector<double> latencies = fleet->latencies_seconds();
  std::sort(latencies.begin(), latencies.end());
  r.latency_p50_s = percentile(latencies, 0.50);
  r.latency_p99_s = percentile(latencies, 0.99);
  const std::size_t live = trace.length() - warmup;
  if (live > 0) r.staleness_mean = staleness_sum / static_cast<double>(live);

  const fleet::EntityStats s = fleet->entity_stats(kEntity);
  r.generation = s.generation;
  r.drift_events = s.drift_events;
  r.retrains = s.retrains;
  r.retrain_failures = fleet->stats().retrains_failed;
  const obs::HistogramSnapshot fits_after = fit_hist.snapshot();
  r.fits = fits_after.count - fits_before.count;
  if (r.fits > 0)
    r.retrain_mean_s =
        (fits_after.sum - fits_before.sum) / static_cast<double>(r.fits);
  return r;
}

void emit_run(std::ofstream& out, const char* name, const RunReport& r,
              bool trailing_comma) {
  out << "    \"" << name << "\": {\n"
      << "      \"wall_seconds\": " << r.wall_seconds << ",\n"
      << "      \"ticks\": " << r.ticks << ",\n"
      << "      \"mse_pre_drift\": " << r.mse_pre << ",\n"
      << "      \"mse_post_drift\": " << r.mse_post << ",\n"
      << "      \"residuals\": {\"pre\": " << r.residuals_pre
      << ", \"post\": " << r.residuals_post << "},\n"
      << "      \"tick_to_forecast_seconds\": {\"p50\": " << r.latency_p50_s
      << ", \"p99\": " << r.latency_p99_s << "},\n"
      << "      \"generation\": " << r.generation << ",\n"
      << "      \"drift_events\": " << r.drift_events << ",\n"
      << "      \"first_drift_tick_post_mutation\": " << r.first_drift_tick
      << ",\n"
      << "      \"retrains\": " << r.retrains << ",\n"
      << "      \"retrain_failures\": " << r.retrain_failures << ",\n"
      << "      \"retrain_seconds\": {\"mean\": " << r.retrain_mean_s
      << ", \"fits\": " << r.fits << "},\n"
      << "      \"staleness_ticks\": {\"mean\": " << r.staleness_mean
      << ", \"max\": " << r.staleness_max << "}\n"
      << "    }" << (trailing_comma ? "," : "") << "\n";
}

int run(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      cfg.out = argv[++i];
    else if (std::strcmp(argv[i], "--pre") == 0 && i + 1 < argc)
      cfg.pre = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--post") == 0 && i + 1 < argc)
      cfg.post = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      cfg.seed = static_cast<std::uint64_t>(std::stoull(argv[++i]));
    else if (std::strcmp(argv[i], "--tick-us") == 0 && i + 1 < argc)
      cfg.tick_us = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc)
      cfg.dump = argv[++i];
  }

  obs::set_enabled(true);  // retrain latency comes from fleet/* histograms

  std::cout << "=== RPTCN streaming bench ===\n"
            << "replay: " << cfg.pre << " regime-A ticks + " << cfg.post
            << " regime-B ticks (mutation at tick " << cfg.pre << "), seed "
            << cfg.seed << ", bootstrap on the first "
            << warmup_ticks(cfg.pre) << "\n\n";

  // The returned schedule pins the flip tick; asserting it against --pre
  // keeps the scoring-window split honest if the generator ever changes.
  const stream::MutatingTrace mutating = stream::make_mutating_trace(
      regime_a(), regime_b(), cfg.pre, cfg.post, cfg.seed);
  if (!mutating.mutations.empty() &&
      mutating.mutations.front().tick != cfg.pre) {
    std::cerr << "mutation schedule disagrees with --pre\n";
    return 1;
  }
  const data::TimeSeriesFrame& trace = mutating.frame;

  std::cout << "[static]   frozen bootstrap snapshot...\n";
  const RunReport frozen =
      replay(trace, /*adaptive=*/false, cfg.pre, cfg.tick_us,
             cfg.dump.empty() ? std::string() : cfg.dump + ".static.csv");
  std::cout << "[adaptive] drift-triggered background retrain...\n";
  const RunReport adaptive =
      replay(trace, /*adaptive=*/true, cfg.pre, cfg.tick_us,
             cfg.dump.empty() ? std::string() : cfg.dump + ".adaptive.csv");

  const double improvement = adaptive.mse_post > 0.0
                                 ? frozen.mse_post / adaptive.mse_post
                                 : 0.0;
  const bool beats = adaptive.mse_post < frozen.mse_post;
  const std::size_t detection_delay =
      adaptive.first_drift_tick > cfg.pre
          ? adaptive.first_drift_tick - cfg.pre
          : 0;

  std::cout << "\n            post-drift MSE   generation  retrains\n"
            << "  static    " << frozen.mse_post << "   " << frozen.generation
            << "           " << frozen.retrains << "\n"
            << "  adaptive  " << adaptive.mse_post << "   "
            << adaptive.generation << "           " << adaptive.retrains
            << "\n"
            << "  improvement (static/adaptive): " << improvement << "x\n"
            << "  detection delay: " << detection_delay << " ticks, "
            << "retrain mean " << adaptive.retrain_mean_s << " s\n";

  std::ofstream out(cfg.out);
  out << "{\n"
      << "  \"bench\": \"rptcn_streaming\",\n"
      << "  \"replay\": {\"pre_ticks\": " << cfg.pre
      << ", \"post_ticks\": " << cfg.post << ", \"mutation_tick\": "
      << cfg.pre << ", \"warmup_ticks\": " << warmup_ticks(cfg.pre)
      << ", \"seed\": " << cfg.seed
      << ", \"tick_interval_us\": " << cfg.tick_us
      << ", \"mse_units\": \"raw_target\"},\n"
      << "  \"pipelines\": {\n";
  emit_run(out, "static", frozen, /*trailing_comma=*/true);
  emit_run(out, "adaptive", adaptive, /*trailing_comma=*/false);
  out << "  },\n"
      << "  \"detection_delay_ticks\": " << detection_delay << ",\n"
      << "  \"post_drift_mse_improvement\": " << improvement << ",\n"
      << "  \"adaptive_beats_static_post_drift\": "
      << (beats ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "[json] wrote " << cfg.out << "\n";
  return beats ? 0 : 1;
}

}  // namespace
}  // namespace rptcn

int main(int argc, char** argv) { return rptcn::run(argc, argv); }
