// Streaming quickstart: watch the online loop detect a regime change,
// retrain in the background, and install the new model.
//
//   ./stream_demo [--pre N] [--post N] [--seed S] [--tick-us U]
//
// Replays a synthetic single-container trace whose workload mutates at a
// known tick (regime A -> regime B) through a one-entity fleet. The fleet
// bootstraps an RPTCN on the first rows, then ingests tick by tick,
// forecasts one step ahead through its batching engine, feeds the residuals
// to the drift detectors, and — when they fire — re-fits on the trailing
// window on a background thread and installs the result without stalling
// ingestion. The log shows the residuals spiking at the mutation, the
// detector firing, and the error recovering after the install.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/builder.h"
#include "stream/source.h"

namespace rptcn {
namespace {

int run(int argc, char** argv) {
  std::size_t pre = 900;
  std::size_t post = 500;
  std::uint64_t seed = 3;
  std::size_t tick_us = 5000;  // pace the replay so fits span few ticks
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pre") == 0 && i + 1 < argc)
      pre = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--post") == 0 && i + 1 < argc)
      post = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::stoull(argv[++i]));
    else if (std::strcmp(argv[i], "--tick-us") == 0 && i + 1 < argc)
      tick_us = static_cast<std::size_t>(std::stoul(argv[++i]));
  }

  trace::WorkloadParams regime_a;
  regime_a.base_level = 0.25;
  regime_a.diurnal_amplitude = 0.10;
  regime_a.noise_sigma = 0.03;
  regime_a.ar_coefficient = 0.85;
  regime_a.mutation_rate = 0.0;
  regime_a.burst_rate = 0.0;
  // A +0.2 sustained level shift — the magnitude of the simulator's own
  // mutation points — with noisier, less persistent dynamics.
  trace::WorkloadParams regime_b = regime_a;
  regime_b.base_level = 0.45;
  regime_b.diurnal_amplitude = 0.05;
  regime_b.noise_sigma = 0.05;
  regime_b.ar_coefficient = 0.65;

  const data::TimeSeriesFrame trace =
      stream::make_mutating_trace(regime_a, regime_b, pre, post, seed).frame;

  // The recipe bench/stream_bench.cpp converged on (see the comments there):
  // full 40-epoch fits (they run in the background), trailing history long
  // enough to span several endogenous regime segments, a validation-loss
  // quality gate with seed retries, and an absolute residual-level trigger
  // on top of the Page-Hinkley / ratio detectors.
  fleet::FleetOptions opt;
  opt.features = {"cpu_util_percent", "mem_util_percent", "net_in", "net_out"};
  opt.shards = 1;
  opt.workers = 1;
  opt.retrain_workers = 1;
  opt.channel.capacity = 2048;
  opt.retrain.history = 512;
  opt.retrain.window.window = 24;
  opt.retrain.window.horizon = 1;
  opt.retrain.min_ticks_between = 32;
  opt.retrain.max_valid_loss = 0.03;
  opt.retrain.fit_attempts = 3;
  opt.drift.residual_ph.delta = 0.05;
  opt.drift.residual_ph.lambda = 0.5;
  opt.drift.windowed.ratio_threshold = 3.0;
  opt.drift.windowed.level_threshold = 0.3;
  opt.drift.windowed.short_window = 16;
  opt.drift.input_ph.lambda = 2.0;
  opt.drift.input_ph.delta = 0.02;
  opt.tenant = "stream-demo";

  fleet::EntitySpec container;
  container.id = "container";
  container.model.name = "RPTCN";
  container.model.config.nn.seed = 9;
  container.model.config.rptcn.tcn.channels = {8, 8};
  container.model.config.rptcn.fc_dim = 8;
  auto fleet = fleet::FleetBuilder().options(opt).add_entity(container).build();

  const std::size_t warmup = pre > 800 ? 400 : pre / 2;
  std::cout << "=== RPTCN streaming demo ===\n"
            << "regime A for " << pre << " ticks, then regime B for " << post
            << " ticks; bootstrap after " << warmup << " ticks\n\n";

  std::cout << std::fixed << std::setprecision(4);
  // An id-only entity is a private cohort of one, named after itself.
  const stream::RetrainOutcome boot =
      fleet->bootstrap_cohort(container.id, trace.slice(0, warmup));
  if (!boot.error.empty()) {
    std::cerr << "bootstrap fit failed: " << boot.error << "\n";
    return 1;
  }
  std::cout << "[tick " << std::setw(5) << warmup
            << "] bootstrap: generation 1 is live (fit " << boot.fit_seconds
            << " s)\n";

  std::vector<const std::vector<double>*> cols;
  for (const std::string& name : opt.features)
    cols.push_back(&trace.column(name));
  std::vector<double> row(cols.size());

  double ewma_residual = 0.0;
  bool ewma_primed = false;
  fleet::EntityStats seen = fleet->entity_stats(container.id);
  std::size_t install_tick = warmup;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = warmup; t < trace.length(); ++t) {
    const std::size_t tick = t + 1;
    if (tick_us > 0)
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(tick_us) * (t - warmup + 1));
    for (std::size_t f = 0; f < cols.size(); ++f) row[f] = (*cols[f])[t];
    fleet->ingest(container.id, row);
    fleet->drain();

    const fleet::EntityStats s = fleet->entity_stats(container.id);
    if (s.residuals > seen.residuals) {
      ewma_residual = ewma_primed
                          ? 0.95 * ewma_residual + 0.05 * s.last_residual
                          : s.last_residual;
      ewma_primed = true;
    }
    if (s.drift_events > seen.drift_events)
      std::cout << "[tick " << std::setw(5) << tick << "] drift detected ("
                << s.last_drift_reason << "), residual ewma "
                << ewma_residual << "\n";
    if (s.generation != seen.generation) {
      install_tick = tick;
      std::cout << "[tick " << std::setw(5) << tick << "] generation "
                << s.generation << " is live\n";
    }
    if (tick % 100 == 0)
      std::cout << "[tick " << std::setw(5) << tick << "] residual ewma "
                << ewma_residual << ", generation " << s.generation
                << ", staleness " << tick - install_tick << " ticks\n";
    seen = s;
  }
  fleet->scheduler().wait_idle();

  const fleet::EntityStats s = fleet->entity_stats(container.id);
  std::cout << "\nfinal: generation " << s.generation << ", " << s.retrains
            << " retrain(s) installed, " << s.drift_events
            << " drift event(s), " << s.forecasts << " forecasts served\n";
  return 0;
}

}  // namespace
}  // namespace rptcn

int main(int argc, char** argv) { return rptcn::run(argc, argv); }
