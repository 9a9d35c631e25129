// Closed-loop scheduling bench: the cost/SLA frontier of forecast-driven
// autoscaling over drifting per-entity traces.
//
// Each entity replays `--pre` ticks of one workload regime followed by
// `--post` ticks of a shifted one (the drift storm the paper targets).
// The SchedulerLoop drives forecast -> headroom -> FFD pack -> replay for
// every (forecast source, headroom) pair and scores it with the asymmetric
// cost model (under-provisioning 8x over-provisioning, plus violation,
// migration and scale-churn charges). Sweeping headroom traces each
// source's cost/SLA frontier: low headroom = cheap but violation-heavy,
// high headroom = safe but idle capacity.
//
// Sources compared:
//  * naive-last     — provision to the newest observation
//  * naive-max<W>   — provision to the trailing-window peak
//  * arima          — frozen ARIMA fit on the bootstrap window
//  * rptcn          — frozen RPTCN fit on the bootstrap window
//  * rptcn-adaptive — same fit, re-fit on trailing history every
//                     --refit-interval ticks (the drift-storm answer)
//
// Learned sources are fit once on entity 0's pre-drift history and shared
// cohort-style across all entities (the fleet layer's snapshot-sharing
// idiom); every forecast still uses the target entity's own history.
//
// Emits BENCH_sched.json and exits nonzero unless both gates hold:
//  * rptcn_beats_naive_at_sla       — best RPTCN variant undercuts
//    naive-last on total cost among headrooms meeting --sla-target
//  * adaptive_beats_frozen_post_drift — at the reference headroom the
//    adaptive refit strictly beats the frozen fit on post-drift cost
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "sched/forecast.h"
#include "sched/loop.h"
#include "stream/source.h"

namespace rptcn {
namespace {

using sched::ForecastSource;
using sched::ReplayScore;

struct BenchConfig {
  std::size_t entities = 6;
  std::size_t pre = 600;    ///< ticks before the regime shift
  std::size_t post = 300;   ///< ticks after it
  std::uint64_t seed = 21;
  std::size_t bootstrap = 256;       ///< warm-up ticks (learned-source fit)
  std::size_t interval = 8;          ///< decision cadence
  std::size_t refit_interval = 64;   ///< adaptive refit cadence
  double sla_target = 0.08;          ///< violation-rate budget
  std::vector<double> headrooms = {1.05, 1.15, 1.3, 1.4, 1.5};
  std::string out = "BENCH_sched.json";
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

// Post-drift regime: sustained +0.2 level shift with noisier, less
// persistent dynamics (see stream_bench for why base stays moderate).
trace::WorkloadParams regime_b() {
  trace::WorkloadParams p = regime_a();
  p.base_level = 0.45;
  p.diurnal_amplitude = 0.05;
  p.noise_sigma = 0.05;
  p.ar_coefficient = 0.65;
  return p;
}

sched::SessionSourceOptions session_options(const BenchConfig& cfg,
                                            const std::string& model) {
  sched::SessionSourceOptions o;
  o.retrain.model_name = model;
  o.retrain.model.nn.seed = 9;
  o.retrain.model.rptcn.tcn.channels = {8, 8};
  o.retrain.model.rptcn.fc_dim = 8;
  o.retrain.model.arima.p = 2;
  o.retrain.model.arima.d = 1;
  o.retrain.model.arima.q = 1;
  o.retrain.history = 512;
  o.retrain.window.window = 24;
  o.retrain.window.horizon = 1;
  o.retrain.min_ticks_between = 0;
  // Quality gate: refits on windows straddling the drift occasionally land
  // in a bad basin; one retry is cheap, shipping the basin is not.
  o.retrain.max_valid_loss = 0.05;
  o.retrain.fit_attempts = 2;
  (void)cfg;
  return o;
}

struct FrontierPoint {
  double headroom = 0.0;
  ReplayScore score;       ///< full scored range
  ReplayScore post;        ///< post-drift window only
  std::size_t decisions = 0;
  std::size_t refits = 0;
  std::size_t infeasible_packs = 0;
  double wall_seconds = 0.0;
};

struct VariantReport {
  std::string name;
  std::vector<FrontierPoint> points;
};

/// Min total cost among frontier points meeting the SLA budget;
/// +inf when no headroom does.
double cost_at_sla(const VariantReport& v, double sla_target) {
  double best = std::numeric_limits<double>::infinity();
  for (const FrontierPoint& p : v.points)
    if (p.score.violation_rate <= sla_target)
      best = std::min(best, p.score.total_cost);
  return best;
}

const FrontierPoint* point_at(const VariantReport& v, double headroom) {
  for (const FrontierPoint& p : v.points)
    if (p.headroom == headroom) return &p;
  return nullptr;
}

void emit_score(std::ostream& out, const char* key, const ReplayScore& s,
                const char* indent) {
  out << indent << "\"" << key << "\": {"
      << "\"total_cost\": " << s.total_cost
      << ", \"violation_rate\": " << s.violation_rate
      << ", \"violations\": " << s.violations
      << ", \"over_cost\": " << s.over_cost
      << ", \"under_cost\": " << s.under_cost
      << ", \"migration_cost\": " << s.migration_cost
      << ", \"scale_cost\": " << s.scale_cost
      << ", \"migrations\": " << s.migrations
      << ", \"scale_events\": " << s.scale_events
      << ", \"entity_ticks\": " << s.entity_ticks << "}";
}

int run(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      cfg.out = argv[++i];
    else if (std::strcmp(argv[i], "--entities") == 0 && i + 1 < argc)
      cfg.entities = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--pre") == 0 && i + 1 < argc)
      cfg.pre = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--post") == 0 && i + 1 < argc)
      cfg.post = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      cfg.seed = static_cast<std::uint64_t>(std::stoull(argv[++i]));
    else if (std::strcmp(argv[i], "--bootstrap") == 0 && i + 1 < argc)
      cfg.bootstrap = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc)
      cfg.interval = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--refit-interval") == 0 && i + 1 < argc)
      cfg.refit_interval = static_cast<std::size_t>(std::stoul(argv[++i]));
    else if (std::strcmp(argv[i], "--sla-target") == 0 && i + 1 < argc)
      cfg.sla_target = std::stod(argv[++i]);
    else if (std::strcmp(argv[i], "--headrooms") == 0 && i + 1 < argc) {
      cfg.headrooms.clear();
      std::stringstream ss(argv[++i]);
      std::string tok;
      while (std::getline(ss, tok, ',')) cfg.headrooms.push_back(std::stod(tok));
    }
  }
  if (cfg.pre <= cfg.bootstrap) {
    std::cerr << "--pre must exceed --bootstrap (learned sources must fit on "
                 "pre-drift history only)\n";
    return 1;
  }

  obs::set_enabled(true);

  const std::size_t mutation_tick = cfg.pre;
  const std::size_t length = cfg.pre + cfg.post;
  std::cout << "=== RPTCN scheduling bench ===\n"
            << cfg.entities << " entities x (" << cfg.pre << " regime-A + "
            << cfg.post << " regime-B ticks), drift at tick " << mutation_tick
            << ", seed " << cfg.seed << "\n"
            << "decision every " << cfg.interval << " ticks, bootstrap "
            << cfg.bootstrap << ", adaptive refit every "
            << cfg.refit_interval << ", SLA budget " << cfg.sla_target
            << "\n\n";

  std::vector<sched::EntityTrace> traces;
  for (std::size_t i = 0; i < cfg.entities; ++i) {
    sched::EntityTrace t;
    t.id = "svc-" + std::to_string(i);
    t.frame = stream::make_mutating_trace(regime_a(), regime_b(), cfg.pre,
                                          cfg.post,
                                          cfg.seed + i * 1000)
                  .frame;
    traces.push_back(std::move(t));
  }
  const data::TimeSeriesFrame bootstrap_history =
      traces.front().frame.slice(0, cfg.bootstrap);

  // Learned sources: one cohort fit on entity 0's pre-drift history, shared
  // across entities. Frozen fits are stateless after construction and are
  // reused across headroom points; the adaptive source mutates (refits), so
  // each headroom point gets a freshly-constructed one — fits are
  // deterministic, this is only compute cost.
  std::cout << "[fit] arima cohort bootstrap...\n";
  const auto arima = std::make_shared<sched::SessionSource>(
      "arima", bootstrap_history, session_options(cfg, "ARIMA"));
  std::cout << "[fit] rptcn cohort bootstrap (valid loss "
            << arima->last_outcome().valid_loss << " for arima)...\n";
  const auto rptcn_frozen = std::make_shared<sched::SessionSource>(
      "rptcn", bootstrap_history, session_options(cfg, "RPTCN"));
  std::cout << "[fit] rptcn bootstrap valid loss "
            << rptcn_frozen->last_outcome().valid_loss << "\n\n";

  struct Variant {
    std::string name;
    bool adaptive;
    std::function<std::shared_ptr<ForecastSource>()> make;
  };
  const std::vector<Variant> variants = {
      {"naive-last", false,
       [] { return std::make_shared<sched::LastValueSource>(); }},
      {"naive-max8", false,
       [] { return std::make_shared<sched::MaxWindowSource>(8); }},
      {"arima", false, [&] { return arima; }},
      {"rptcn", false, [&] { return rptcn_frozen; }},
      {"rptcn-adaptive", true,
       [&] {
         return std::make_shared<sched::SessionSource>(
             "rptcn-adaptive", bootstrap_history,
             session_options(cfg, "RPTCN"));
       }},
  };

  std::vector<VariantReport> reports;
  for (const Variant& v : variants) {
    VariantReport report;
    report.name = v.name;
    for (const double headroom : cfg.headrooms) {
      sched::LoopOptions o;
      o.machines.assign(cfg.entities, sched::MachineSpec{});
      o.autoscaler.headroom = headroom;
      o.bootstrap_ticks = cfg.bootstrap;
      o.decision_interval = cfg.interval;
      o.refit_interval = v.adaptive ? cfg.refit_interval : 0;
      o.refit_history = 512;
      o.tenant = "sched-bench";

      const std::shared_ptr<ForecastSource> source = v.make();
      const std::vector<std::shared_ptr<ForecastSource>> sources(
          cfg.entities, source);

      Stopwatch wall;
      sched::SchedulerLoop loop(traces, o);
      const sched::LoopResult r = loop.run(sources);

      FrontierPoint p;
      p.headroom = headroom;
      p.score = r.score;
      p.post = r.evaluator.score_window(mutation_tick, length);
      p.decisions = r.decisions;
      p.refits = r.refits;
      p.infeasible_packs = r.infeasible_packs;
      p.wall_seconds = wall.elapsed_seconds();
      report.points.push_back(p);

      std::cout << "[" << v.name << "] headroom " << headroom
                << ": total_cost " << p.score.total_cost
                << ", violation_rate " << p.score.violation_rate
                << ", post_drift_cost " << p.post.total_cost
                << (p.refits > 0
                        ? ", refits " + std::to_string(p.refits)
                        : std::string())
                << " (" << p.wall_seconds << " s)\n";
    }
    reports.push_back(std::move(report));
  }

  const auto find = [&](const std::string& name) -> const VariantReport& {
    for (const VariantReport& r : reports)
      if (r.name == name) return r;
    std::cerr << "missing variant " << name << "\n";
    std::exit(2);
  };
  const double naive_cost = cost_at_sla(find("naive-last"), cfg.sla_target);
  const double rptcn_cost =
      std::min(cost_at_sla(find("rptcn"), cfg.sla_target),
               cost_at_sla(find("rptcn-adaptive"), cfg.sla_target));
  const bool gate_rptcn =
      std::isfinite(rptcn_cost) && rptcn_cost < naive_cost;

  // Post-drift comparison at the reference headroom (middle of the grid):
  // same capacity policy, only the refit cadence differs.
  const double reference_headroom =
      cfg.headrooms[cfg.headrooms.size() / 2];
  const FrontierPoint* frozen_ref =
      point_at(find("rptcn"), reference_headroom);
  const FrontierPoint* adaptive_ref =
      point_at(find("rptcn-adaptive"), reference_headroom);
  const bool gate_adaptive =
      frozen_ref != nullptr && adaptive_ref != nullptr &&
      adaptive_ref->post.total_cost < frozen_ref->post.total_cost;

  std::cout << "\ncost at SLA <= " << cfg.sla_target << ": naive-last "
            << naive_cost << ", best rptcn " << rptcn_cost << " -> "
            << (gate_rptcn ? "PASS" : "FAIL") << "\n"
            << "post-drift at headroom " << reference_headroom << ": frozen "
            << (frozen_ref ? frozen_ref->post.total_cost : -1.0)
            << ", adaptive "
            << (adaptive_ref ? adaptive_ref->post.total_cost : -1.0)
            << " -> " << (gate_adaptive ? "PASS" : "FAIL") << "\n";

  std::ofstream out(cfg.out);
  out << "{\n"
      << "  \"bench\": \"rptcn_sched\",\n"
      << "  \"replay\": {\"entities\": " << cfg.entities
      << ", \"pre_ticks\": " << cfg.pre << ", \"post_ticks\": " << cfg.post
      << ", \"mutation_tick\": " << mutation_tick << ", \"seed\": "
      << cfg.seed << ", \"bootstrap_ticks\": " << cfg.bootstrap
      << ", \"decision_interval\": " << cfg.interval
      << ", \"refit_interval\": " << cfg.refit_interval
      << ", \"sla_target\": " << cfg.sla_target
      << ", \"reference_headroom\": " << reference_headroom << "},\n"
      << "  \"cost_model\": {\"over_unit\": 1.0, \"under_unit\": 8.0, "
      << "\"violation\": 0.05, \"migration\": 0.5, \"scale_event\": 0.1},\n"
      << "  \"frontier\": {\n";
  for (std::size_t v = 0; v < reports.size(); ++v) {
    out << "    \"" << reports[v].name << "\": [\n";
    for (std::size_t i = 0; i < reports[v].points.size(); ++i) {
      const FrontierPoint& p = reports[v].points[i];
      out << "      {\"headroom\": " << p.headroom << ",\n";
      emit_score(out, "score", p.score, "       ");
      out << ",\n";
      emit_score(out, "post_drift", p.post, "       ");
      out << ",\n       \"decisions\": " << p.decisions << ", \"refits\": "
          << p.refits << ", \"infeasible_packs\": " << p.infeasible_packs
          << ", \"wall_seconds\": " << p.wall_seconds << "}"
          << (i + 1 < reports[v].points.size() ? "," : "") << "\n";
    }
    out << "    ]" << (v + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  },\n"
      << "  \"cost_at_sla\": {\"naive_last\": "
      << (std::isfinite(naive_cost) ? naive_cost : -1.0)
      << ", \"rptcn_best\": "
      << (std::isfinite(rptcn_cost) ? rptcn_cost : -1.0) << "},\n"
      << "  \"post_drift_at_reference\": {\"frozen\": "
      << (frozen_ref ? frozen_ref->post.total_cost : -1.0)
      << ", \"adaptive\": "
      << (adaptive_ref ? adaptive_ref->post.total_cost : -1.0) << "},\n"
      << "  \"gates\": {\"rptcn_beats_naive_at_sla\": "
      << (gate_rptcn ? "true" : "false")
      << ", \"adaptive_beats_frozen_post_drift\": "
      << (gate_adaptive ? "true" : "false") << "}\n"
      << "}\n";
  std::cout << "[json] wrote " << cfg.out << "\n";
  return (gate_rptcn && gate_adaptive) ? 0 : 1;
}

}  // namespace
}  // namespace rptcn

int main(int argc, char** argv) { return rptcn::run(argc, argv); }
