// google-benchmark microbenches for the numeric substrate: GEMM, dilated
// causal conv1d forward/backward, LSTM step, attention block, trace
// generation and PCC screening. These are the kernels whose cost dominates
// the paper-reproduction benches.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>

#include "autograd/ops.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/parallel_runner.h"
#include "data/correlation.h"
#include "nn/attention.h"
#include "nn/lstm.h"
#include "nn/tcn.h"
#include "tensor/dispatch.h"
#include "tensor/tensor_ops.h"
#include "trace/cluster.h"

namespace rptcn {
namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul_tn(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_GemmTn)->Arg(64)->Arg(256);

void BM_GemmNt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul_nt(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_GemmNt)->Arg(64)->Arg(256);

/// Forward at the paper's residual-block shape (im2col+GEMM lowering).
void BM_Conv1dForward(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Variable x(Tensor::randn({32, 16, t}, rng));
  const Variable w(Tensor::randn({16, 16, 3}, rng));
  const Variable b(Tensor::randn({16}, rng));
  NoGradScope no_grad;
  for (auto _ : state) {
    Variable y = ag::conv1d(x, w, b, 2);
    benchmark::DoNotOptimize(y.node().get());
  }
}
BENCHMARK(BM_Conv1dForward)->ArgName("t")->Arg(16)->Arg(32)->Arg(64);

/// Forward + backward (dX, dW, db): the full autograd round trip.
void BM_Conv1dTrainStep(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Variable x(Tensor::randn({32, 16, t}, rng));
  Variable w(Tensor::randn({16, 16, 3}, rng), true);
  Variable b(Tensor::randn({16}, rng), true);
  const Tensor target = Tensor::randn({32, 16, t}, rng);
  for (auto _ : state) {
    w.zero_grad();
    b.zero_grad();
    Variable loss = ag::mse_loss(ag::conv1d(x, w, b, 2), target);
    loss.backward();
    benchmark::DoNotOptimize(w.grad().raw());
  }
}
BENCHMARK(BM_Conv1dTrainStep)->ArgName("t")->Arg(16)->Arg(32);

void BM_SoftmaxLastdim(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Tensor a = Tensor::randn({32, t}, rng);
  for (auto _ : state) {
    Tensor s = softmax_lastdim(a);
    benchmark::DoNotOptimize(s.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          t);
}
BENCHMARK(BM_SoftmaxLastdim)->Arg(24)->Arg(256);

void BM_ElementwiseSigmoid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const Tensor a = Tensor::randn({n}, rng);
  for (auto _ : state) {
    Tensor s = sigmoid(a);
    benchmark::DoNotOptimize(s.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ElementwiseSigmoid)->Arg(1024)->Arg(65536);

void BM_ElementwiseExp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  const Tensor a = Tensor::randn({n}, rng);
  for (auto _ : state) {
    Tensor s = exp_t(a);
    benchmark::DoNotOptimize(s.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ElementwiseExp)->Arg(1024)->Arg(65536);

void BM_ElementwiseMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const Tensor a = Tensor::randn({n}, rng);
  const Tensor b = Tensor::randn({n}, rng);
  for (auto _ : state) {
    Tensor c = mul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ElementwiseMul)->Arg(1024)->Arg(65536);

void BM_TcnForward(benchmark::State& state) {
  Rng rng(4);
  nn::TcnOptions opt;
  opt.channels = {16, 16, 16};
  opt.dropout = 0.0f;
  nn::Tcn tcn(8, opt, rng);
  tcn.set_training(false);
  const Variable x(Tensor::randn({32, 8, 32}, rng));
  NoGradScope no_grad;
  Rng drop_rng(5);
  for (auto _ : state) {
    Variable y = tcn.forward(x, drop_rng);
    benchmark::DoNotOptimize(y.node().get());
  }
}
BENCHMARK(BM_TcnForward);

void BM_LstmForward(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  nn::Lstm lstm(12, 24, rng);
  const Variable x(Tensor::randn({32, 12, t}, rng));
  NoGradScope no_grad;
  for (auto _ : state) {
    Variable h = lstm.forward(x);
    benchmark::DoNotOptimize(h.node().get());
  }
}
BENCHMARK(BM_LstmForward)->Arg(16)->Arg(32);

void BM_Attention(benchmark::State& state) {
  Rng rng(7);
  nn::TemporalAttention att(16, rng);
  const Variable z(Tensor::randn({32, 16, 32}, rng));
  NoGradScope no_grad;
  for (auto _ : state) {
    auto out = att.forward(z);
    benchmark::DoNotOptimize(out.glimpse.node().get());
  }
}
BENCHMARK(BM_Attention);

void BM_TraceGeneration(benchmark::State& state) {
  const auto steps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    trace::TraceConfig cfg;
    cfg.num_machines = 4;
    cfg.duration_steps = steps;
    cfg.seed = 99;
    trace::ClusterSimulator sim(cfg);
    sim.run();
    benchmark::DoNotOptimize(sim.num_containers());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          steps * 4);
}
BENCHMARK(BM_TraceGeneration)->Arg(500)->Arg(2000);

void BM_CorrelationScreening(benchmark::State& state) {
  trace::TraceConfig cfg;
  cfg.num_machines = 2;
  cfg.duration_steps = 2000;
  cfg.seed = 55;
  trace::ClusterSimulator sim(cfg);
  sim.run();
  const auto& frame = sim.container_trace(0);
  for (auto _ : state) {
    auto kept = data::select_top_half(frame, "cpu_util_percent");
    benchmark::DoNotOptimize(kept.indicators());
  }
}
BENCHMARK(BM_CorrelationScreening);

// ---------------------------------------------------------------------------
// BENCH_kernels.json: headline GFLOP/s of the shared GEMM kernel plus the
// parallel-runner speedup on a small experiment grid, in one machine-readable
// file so perf regressions are diffable across commits.
// ---------------------------------------------------------------------------

double gemm_gflops(const char* which) {
  Rng rng(1);
  const std::size_t n = 256;
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  const auto run = [&] {
    Tensor c = which[0] == 'm'   ? matmul(a, b)
               : which[0] == 't' ? matmul_tn(a, b)
                                 : matmul_nt(a, b);
    benchmark::DoNotOptimize(c.raw());
  };
  run();  // warm-up (page in the pack buffers)
  Stopwatch watch;
  std::size_t iters = 0;
  while (watch.elapsed_seconds() < 0.2) {
    run();
    ++iters;
  }
  const double flops = 2.0 * static_cast<double>(n) * n * n * iters;
  return flops / watch.elapsed_seconds() / 1e9;
}

/// Seconds per conv1d forward+backward round trip at the paper's residual
/// block shape (batch 32, 16->16 channels, k=3, d=2, T=24).
double conv_step_seconds() {
  Rng rng(13);
  const Variable x(Tensor::randn({32, 16, 24}, rng));
  Variable w(Tensor::randn({16, 16, 3}, rng), true);
  Variable b(Tensor::randn({16}, rng), true);
  const Tensor target = Tensor::randn({32, 16, 24}, rng);
  const auto run = [&] {
    w.zero_grad();
    b.zero_grad();
    Variable loss = ag::mse_loss(ag::conv1d(x, w, b, 2), target);
    loss.backward();
    benchmark::DoNotOptimize(w.grad().raw());
  };
  run();  // warm-up (pool + pack buffers)
  Stopwatch watch;
  std::size_t iters = 0;
  while (watch.elapsed_seconds() < 0.2) {
    run();
    ++iters;
  }
  return watch.elapsed_seconds() / iters;
}

struct GridTiming {
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  std::size_t parallel_jobs = 1;
  bool bit_identical = true;
};

/// Time a 2-model x 2-container grid serially and with the configured worker
/// count, and check the results match bit for bit.
GridTiming time_grid() {
  const auto sim = bench::make_cluster(bench::default_trace_config(400, 2));
  std::vector<core::ExperimentJob> jobs;
  for (const char* model : {"LSTM", "RPTCN"}) {
    for (const std::size_t c : {std::size_t{0}, std::size_t{1}}) {
      core::ExperimentJob job;
      job.frame = &sim->container_trace(c);
      job.model = model;
      job.scenario = core::Scenario::kMulExp;
      job.prepare = bench::default_prepare();
      auto cfg = bench::default_model_config(42 + c);
      cfg.nn.max_epochs = 6;
      job.config = cfg;
      job.tag = std::string(model) + "/c" + std::to_string(c);
      jobs.push_back(std::move(job));
    }
  }

  GridTiming t;
  t.parallel_jobs = core::configured_jobs();
  core::ParallelRunOptions serial_opt;
  serial_opt.jobs = 1;
  Stopwatch serial_watch;
  const auto serial = core::run_experiments(jobs, serial_opt);
  t.serial_seconds = serial_watch.elapsed_seconds();

  core::ParallelRunOptions par_opt;
  par_opt.jobs = t.parallel_jobs;
  Stopwatch par_watch;
  const auto parallel = core::run_experiments(jobs, par_opt);
  t.parallel_seconds = par_watch.elapsed_seconds();

  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].accuracy.mse != parallel[i].accuracy.mse ||
        serial[i].accuracy.mae != parallel[i].accuracy.mae)
      t.bit_identical = false;
    const float* a = serial[i].predictions.raw();
    const float* b = parallel[i].predictions.raw();
    for (std::size_t j = 0; j < serial[i].predictions.size(); ++j)
      if (a[j] != b[j]) t.bit_identical = false;
  }
  return t;
}

/// Per-tier measurements for the "dispatch" BENCH section. The tier is
/// forced through the test hook around each measurement and restored by the
/// caller.
struct TierPerf {
  KernelArch arch = KernelArch::kScalar;
  double gemm_gflops_256 = 0.0;  ///< float 256^3 matmul
  double exp_gelems = 0.0;       ///< vexp elements/s (64k buffer), 1e9
  double tanh_gelems = 0.0;
};

double elementwise_gelems(void (*kernel)(float*, std::size_t)) {
  Rng rng(21);
  const std::size_t n = 65536;
  const Tensor src = Tensor::randn({n}, rng);
  std::vector<float> buf(n);
  const auto run = [&] {
    std::copy_n(src.raw(), n, buf.data());
    kernel(buf.data(), n);
    benchmark::DoNotOptimize(buf.data());
  };
  run();  // warm-up
  Stopwatch watch;
  std::size_t iters = 0;
  while (watch.elapsed_seconds() < 0.1) {
    run();
    ++iters;
  }
  return static_cast<double>(n) * iters / watch.elapsed_seconds() / 1e9;
}

TierPerf measure_tier(KernelArch arch) {
  set_kernel_arch_for_testing(arch);
  TierPerf p;
  p.arch = arch;
  p.gemm_gflops_256 = gemm_gflops("matmul");
  p.exp_gelems = elementwise_gelems(kernels().vexp);
  p.tanh_gelems = elementwise_gelems(kernels().vtanh);
  return p;
}

/// Every tier this binary can run here, ascending (scalar always first).
std::vector<KernelArch> runnable_tiers() {
  std::vector<KernelArch> tiers{KernelArch::kScalar};
  if (best_supported_arch() >= KernelArch::kAvx2)
    tiers.push_back(KernelArch::kAvx2);
  if (best_supported_arch() >= KernelArch::kAvx512)
    tiers.push_back(KernelArch::kAvx512);
  return tiers;
}

void emit_kernels_json() {
  const double mm = gemm_gflops("matmul");
  const double tn = gemm_gflops("tn");
  const double nt = gemm_gflops("nt");
  const double conv_seconds = conv_step_seconds();
  const GridTiming grid = time_grid();
  // With one worker the "parallel" run is a second serial run, so its ratio
  // to the first measures only run-to-run noise: report no speedup then.
  const bool grid_parallel = grid.parallel_jobs > 1;
  const double speedup =
      grid.parallel_seconds > 0.0 ? grid.serial_seconds / grid.parallel_seconds
                                  : 0.0;

  // Per-tier sweep: force each compiled+supported tier, measure, restore.
  const KernelArch active = kernel_arch();
  std::vector<TierPerf> tiers;
  for (KernelArch arch : runnable_tiers()) tiers.push_back(measure_tier(arch));
  set_kernel_arch_for_testing(active);
  const TierPerf& scalar_perf = tiers.front();
  const TierPerf& best_perf = tiers.back();
  const double simd_speedup =
      scalar_perf.gemm_gflops_256 > 0.0
          ? best_perf.gemm_gflops_256 / scalar_perf.gemm_gflops_256
          : 0.0;

  std::ofstream out("BENCH_kernels.json");
  out << "{\n"
      << "  \"dispatch\": {\n"
      << "    \"active_arch\": \"" << kernel_arch_name(active) << "\",\n"
      << "    \"best_arch\": \"" << kernel_arch_name(best_supported_arch())
      << "\",\n"
      << "    \"cpu_flags\": \"" << cpu_flags_string() << "\",\n"
      << "    \"tiers\": {\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const TierPerf& p = tiers[i];
    out << "      \"" << kernel_arch_name(p.arch) << "\": {\n"
        << "        \"gemm_256_gflops\": " << p.gemm_gflops_256 << ",\n"
        << "        \"exp_gelems_per_s\": " << p.exp_gelems << ",\n"
        << "        \"tanh_gelems_per_s\": " << p.tanh_gelems << "\n"
        << "      }" << (i + 1 < tiers.size() ? "," : "") << "\n";
  }
  out << "    },\n"
      << "    \"speedup_best_vs_scalar_gemm256\": " << simd_speedup << "\n"
      << "  },\n"
      << "  \"gemm_size\": 256,\n"
      << "  \"gflops\": {\n"
      << "    \"matmul\": " << mm << ",\n"
      << "    \"matmul_tn\": " << tn << ",\n"
      << "    \"matmul_nt\": " << nt << "\n"
      << "  },\n"
      << "  \"conv1d\": {\n"
      << "    \"shape\": \"32x16x24 k3 d2 fwd+bwd\",\n"
      << "    \"seconds_per_step\": " << conv_seconds << "\n"
      << "  },\n"
      << "  \"grid\": {\n"
      << "    \"jobs\": 4,\n"
      << "    \"workers_parallel\": " << grid.parallel_jobs << ",\n"
      << "    \"seconds_serial\": " << grid.serial_seconds << ",\n"
      << "    \"seconds_parallel\": " << grid.parallel_seconds << ",\n";
  if (grid_parallel) out << "    \"speedup\": " << speedup << ",\n";
  out << "    \"bit_identical\": " << (grid.bit_identical ? "true" : "false")
      << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "[json] wrote BENCH_kernels.json — 256^3 GEMM " << mm
            << " GFLOP/s; conv1d fwd+bwd " << conv_seconds * 1e3
            << " ms; ";
  if (grid_parallel)
    std::cout << "grid speedup " << speedup << "x on " << grid.parallel_jobs
              << " workers";
  else
    std::cout << "grid on 1 worker (no speedup to report)";
  std::cout << " (bit_identical=" << (grid.bit_identical ? "true" : "false")
            << ")\n"
            << "[json] dispatch: active=" << kernel_arch_name(active)
            << " best-vs-scalar GEMM " << simd_speedup << "x ("
            << cpu_flags_string() << ")\n";
}

}  // namespace
}  // namespace rptcn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rptcn::emit_kernels_json();
  return 0;
}
