// Full RPTCN training-step bench at the paper's shapes: forward + backward +
// gradient clip + Adam on batch 32 of the Mul-Exp scenario (12 indicator
// channels, window 24), the exact inner loop of every accuracy experiment.
//
// Times the eager step with the buffer pool off and on, then the planned
// step against the eager tape. The runs share one seed, so parameters and
// data are identical and only the execution differs.
//
// Emits BENCH_training.json (override with --out <path>).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/plan.h"
#include "graph/train.h"
#include "nn/rptcn_net.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "opt/trainer.h"
#include "tensor/buffer_pool.h"

namespace rptcn {
namespace {

constexpr std::size_t kBatch = 32;
constexpr std::size_t kFeatures = 12;  // Mul-Exp indicator channels
constexpr std::size_t kWindow = 24;
constexpr std::size_t kWarmupSteps = 5;
constexpr std::size_t kTimedSteps = 40;

struct RunConfig {
  const char* name;
  bool pool;
};

struct RunResult {
  double seconds_per_step = 0.0;
  double steps_per_second = 0.0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double pool_hit_rate = 0.0;
  float final_loss = 0.0f;
};

/// One fresh net + optimizer + fixed batch, trained kTimedSteps steps with
/// the pool on or off. Same seed everywhere: every run does the same
/// logical work.
RunResult run_config(const RunConfig& cfg) {
  pool::set_enabled(cfg.pool);
  pool::clear_thread_cache();

  nn::RptcnOptions opt;
  opt.input_features = kFeatures;
  opt.horizon = 1;
  opt.tcn.channels = {16, 16, 16};
  opt.tcn.kernel_size = 3;
  opt.tcn.dropout = 0.05f;
  opt.fc_dim = 16;
  opt.seed = 42;
  nn::RptcnNet net(opt);
  net.set_training(true);

  Rng rng(7);
  const Variable x(Tensor::randn({kBatch, kFeatures, kWindow}, rng));
  const Tensor target = Tensor::randn({kBatch, 1}, rng);

  std::vector<Variable> params = net.parameters();
  opt::Adam adam(params, 2e-3f);

  const auto step = [&] {
    adam.zero_grad();
    Variable loss = ag::mse_loss(net.forward(x), target);
    loss.backward();
    opt::clip_grad_norm(params, 1.0f);
    adam.step();
    return loss.value().at(0);
  };

  for (std::size_t i = 0; i < kWarmupSteps; ++i) step();

  const auto s0 = pool::thread_stats();
  Stopwatch watch;
  float loss = 0.0f;
  for (std::size_t i = 0; i < kTimedSteps; ++i) loss = step();
  const double elapsed = watch.elapsed_seconds();
  const auto s1 = pool::thread_stats();

  RunResult r;
  r.seconds_per_step = elapsed / kTimedSteps;
  r.steps_per_second = kTimedSteps / elapsed;
  r.pool_hits = s1.hits - s0.hits;
  r.pool_misses = s1.misses - s0.misses;
  const double total = static_cast<double>(r.pool_hits + r.pool_misses);
  r.pool_hit_rate = total > 0.0 ? r.pool_hits / total : 0.0;
  r.final_loss = loss;
  return r;
}

/// The headline ISSUE 8 comparison: the full training step — forward,
/// backward, clip, Adam — as the eager tape vs one planned program replayed
/// per batch (graph::make_planned_step). Two identically-seeded nets run the
/// identical step sequence; the planned one captures during warmup (the
/// probe is itself a training step, so the nets never diverge) and replays
/// thereafter. bit_identical demands every per-step loss float and every
/// final parameter byte agree.
struct TrainPlanResult {
  double tape_ms_per_step = 0.0;
  double planned_ms_per_step = 0.0;
  double tape_steps_per_second = 0.0;
  double planned_steps_per_second = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
  double arena_bytes = 0.0;  ///< planned program's activation+grad arena
};

TrainPlanResult run_train_plan_bench() {
  const bool obs_was = obs::enabled();
  obs::set_enabled(true);
  obs::metrics().gauge("graph/train_arena_bytes").reset();

  nn::RptcnOptions opt;
  opt.input_features = kFeatures;
  opt.horizon = 1;
  opt.tcn.channels = {16, 16, 16};
  opt.tcn.kernel_size = 3;
  opt.tcn.dropout = 0.05f;
  opt.fc_dim = 16;
  opt.seed = 42;
  nn::RptcnNet tape_net(opt);
  nn::RptcnNet planned_net(opt);  // same init, same dropout stream
  tape_net.set_training(true);
  planned_net.set_training(true);

  Rng rng(7);
  const Tensor x = Tensor::randn({kBatch, kFeatures, kWindow}, rng);
  const Tensor target = Tensor::randn({kBatch, 1}, rng);

  std::vector<Variable> tape_params = tape_net.parameters();
  opt::Adam tape_adam(tape_params, 2e-3f);
  opt::Adam planned_adam(planned_net.parameters(), 2e-3f);

  opt::TrainOptions topt;
  topt.loss = opt::Loss::kMse;
  topt.clip_norm = 1.0f;
  const opt::ForwardFn planned_fwd = [&](const Variable& v) {
    return planned_net.forward(v);
  };
  auto planned = graph::make_planned_step(planned_net, planned_fwd,
                                          planned_adam, topt);

  const Variable xv(x);
  const auto tape_step = [&] {
    tape_adam.zero_grad();
    Variable loss = ag::mse_loss(tape_net.forward(xv), target);
    loss.backward();
    opt::clip_grad_norm(tape_params, 1.0f);
    tape_adam.step();
    return loss.value().at(0);
  };
  const auto planned_step = [&] {
    float loss = 0.0f;
    if (planned == nullptr || !planned->step(x, target, &loss))
      std::cerr << "planned step declined a batch\n";
    return loss;
  };

  TrainPlanResult r;
  r.bit_identical = planned != nullptr;
  // Warmup runs both step streams in lockstep and gates bit-identity on
  // every loss (the planned side captures + self-verifies on step one).
  for (std::size_t i = 0; i < kWarmupSteps; ++i) {
    const float a = tape_step();
    const float b = planned_step();
    if (std::memcmp(&a, &b, sizeof(float)) != 0) r.bit_identical = false;
  }

  Stopwatch tape_watch;
  for (std::size_t i = 0; i < kTimedSteps; ++i) tape_step();
  const double tape_elapsed = tape_watch.elapsed_seconds();

  Stopwatch planned_watch;
  for (std::size_t i = 0; i < kTimedSteps; ++i) planned_step();
  const double planned_elapsed = planned_watch.elapsed_seconds();

  // Final gate: after warmup + timed steps the two parameter sets must be
  // byte-for-byte equal — the planned program IS the eager step.
  const auto pa = tape_net.named_parameters();
  const auto pb = planned_net.named_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Tensor& ta = pa[i].second.value();
    const Tensor& tb = pb[i].second.value();
    if (ta.size() != tb.size() ||
        std::memcmp(ta.raw(), tb.raw(), ta.size() * sizeof(float)) != 0)
      r.bit_identical = false;
  }

  r.tape_ms_per_step = tape_elapsed / kTimedSteps * 1e3;
  r.planned_ms_per_step = planned_elapsed / kTimedSteps * 1e3;
  r.tape_steps_per_second = kTimedSteps / tape_elapsed;
  r.planned_steps_per_second = kTimedSteps / planned_elapsed;
  r.speedup = planned_elapsed > 0.0 ? tape_elapsed / planned_elapsed : 0.0;
  r.arena_bytes = obs::metrics().gauge("graph/train_arena_bytes").value();
  obs::set_enabled(obs_was);
  return r;
}

void emit_json(const std::string& path, const RunConfig* cfgs,
               const RunResult* results, std::size_t count,
               const TrainPlanResult& plan) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"rptcn_train_step\",\n"
      << "  \"shape\": {\"batch\": " << kBatch
      << ", \"features\": " << kFeatures << ", \"window\": " << kWindow
      << ", \"channels\": [16, 16, 16], \"kernel\": 3, \"fc_dim\": 16},\n"
      << "  \"steps_timed\": " << kTimedSteps << ",\n"
      << "  \"configs\": {\n";
  for (std::size_t i = 0; i < count; ++i) {
    const RunResult& r = results[i];
    out << "    \"" << cfgs[i].name << "\": {\n"
        << "      \"ms_per_step\": " << r.seconds_per_step * 1e3 << ",\n"
        << "      \"steps_per_second\": " << r.steps_per_second << ",\n"
        << "      \"pool_hits\": " << r.pool_hits << ",\n"
        << "      \"pool_misses\": " << r.pool_misses << ",\n"
        << "      \"pool_hit_rate\": " << r.pool_hit_rate << ",\n"
        << "      \"final_loss\": " << r.final_loss << "\n"
        << "    }" << (i + 1 < count ? "," : "") << "\n";
  }
  out << "  },\n"
      << "  \"train_step_planned\": {\n"
      << "    \"tape_ms_per_step\": " << plan.tape_ms_per_step << ",\n"
      << "    \"planned_ms_per_step\": " << plan.planned_ms_per_step << ",\n"
      << "    \"tape_steps_per_second\": " << plan.tape_steps_per_second
      << ",\n"
      << "    \"planned_steps_per_second\": " << plan.planned_steps_per_second
      << ",\n"
      << "    \"speedup_planned_vs_tape\": " << plan.speedup << ",\n"
      << "    \"arena_bytes\": " << plan.arena_bytes << ",\n"
      << "    \"bit_identical\": " << (plan.bit_identical ? "true" : "false")
      << "\n  }\n"
      << "}\n";
  std::cout << "[json] wrote " << path << "\n";
}

int run(int argc, char** argv) {
  std::string out_path = "BENCH_training.json";
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];

  const RunConfig configs[] = {
      {"im2col_nopool", false},
      {"im2col_pool", true},
  };
  constexpr std::size_t kConfigs = sizeof(configs) / sizeof(configs[0]);

  std::cout << "=== RPTCN training-step bench ===\n"
            << "batch " << kBatch << ", features " << kFeatures << ", window "
            << kWindow << ", channels {16,16,16}, k=3, Adam lr 2e-3\n\n";

  RunResult results[kConfigs];
  for (std::size_t i = 0; i < kConfigs; ++i) {
    results[i] = run_config(configs[i]);
    std::cout << "  " << configs[i].name << ": "
              << results[i].seconds_per_step * 1e3 << " ms/step ("
              << results[i].steps_per_second << " steps/s";
    if (configs[i].pool)
      std::cout << ", pool hit rate " << results[i].pool_hit_rate * 100.0
                << "%";
    std::cout << ")\n";
  }

  // Restore the default for anything running after us in-process.
  pool::set_enabled(true);

  const TrainPlanResult plan = run_train_plan_bench();
  std::cout << "train step (planned vs tape): tape "
            << plan.tape_ms_per_step << " ms, planned "
            << plan.planned_ms_per_step << " ms, speedup " << plan.speedup
            << "x, arena " << plan.arena_bytes / 1024.0
            << " KiB, bit_identical "
            << (plan.bit_identical ? "true" : "false") << "\n";

  emit_json(out_path, configs, results, kConfigs, plan);
  return 0;
}

}  // namespace
}  // namespace rptcn

int main(int argc, char** argv) { return rptcn::run(argc, argv); }
