// Serving bench: single-stream vs micro-batched inference for two serving
// profiles at the paper's shapes (12 indicator channels, window 24), each
// measured under both executors:
//
//  * tape    — the session's eager module forward (graph planning
//    disabled).
//  * planned — the compiled arena program (graph/plan.h), the session
//    default. By the bit-identity contract the outputs are identical; only
//    the time changes.
//
//  * rptcn — conv backbone {16,16,16}. Per-request cost is dominated by the
//    convolution arithmetic itself, so batching only amortises per-call
//    fixed overhead (dispatch, buffer acquisition, im2col setup). This is
//    the profile ahead-of-time planning targets (no per-op allocation,
//    dispatch or weight_norm recomputation), so speedup_planned_vs_tape is
//    asserted on its batched column in CI.
//  * lstm  — hidden 64, unrolled over 24 timesteps. At N=1 every timestep
//    is a single-row GEMM against the recurrent weight matrix, so the
//    kernel's fixed per-call work dominates; coalescing 32 requests turns
//    the same calls into 32-row GEMMs where packing is amortised. This is
//    the profile micro-batching exists for, and the headline
//    speedup_batched_vs_single is measured on it.
//
// Single-stream runs InferenceSession::run on one window at a time — the
// latency floor and the throughput baseline. Batched drives a saturating
// open-loop load from `kSubmitters` threads through a BatchingEngine at
// max_batch 32; throughput is completed requests over wall time and latency
// is submit -> harvested. The batched latency is decomposed via the
// engine's serve/queue_wait_seconds and serve/forward_seconds histograms
// (snapshot deltas around the measured run): queue_wait_ms is time spent
// coalescing in the queue, forward_ms is the model itself. Histogram
// percentiles are log-2 bucket upper bounds (conservative).
//
// One batched run takes well under a second, so a single tape run against
// a single planned run compares two samples of host noise as much as two
// executors. Each model's batched profile therefore runs kBatchedRepeats
// tape/planned pairs, alternating which executor goes first. Each executor
// reports its median-throughput run, and the batched planned-vs-tape
// speedup is the median of the per-pair throughput ratios.
//
// Emits BENCH_serving.json (override with --out <path>).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/plan.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/session.h"

namespace rptcn {
namespace {

constexpr std::size_t kFeatures = 12;  // Mul-Exp indicator channels
constexpr std::size_t kWindow = 24;
constexpr std::size_t kSingleWarmup = 20;
constexpr std::size_t kSingleRequests = 400;
constexpr std::size_t kSubmitters = 4;
constexpr std::size_t kRequestsPerSubmitter = 800;
constexpr std::size_t kBatchedRepeats = 7;

struct LatencyStats {
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

LatencyStats summarize(std::vector<double>& latencies_s, double wall_s) {
  std::sort(latencies_s.begin(), latencies_s.end());
  LatencyStats s;
  s.throughput_rps = static_cast<double>(latencies_s.size()) / wall_s;
  s.p50_ms = percentile(latencies_s, 0.50) * 1e3;
  s.p95_ms = percentile(latencies_s, 0.95) * 1e3;
  s.p99_ms = percentile(latencies_s, 0.99) * 1e3;
  double sum = 0.0;
  for (double v : latencies_s) sum += v;
  s.mean_ms = latencies_s.empty()
                  ? 0.0
                  : sum / static_cast<double>(latencies_s.size()) * 1e3;
  return s;
}

/// Approximate percentiles of one histogram over a measurement interval,
/// from the bucket-count delta of two snapshots. A percentile reports the
/// log-2 upper bound of the bucket the rank falls in; the mean is exact
/// (sum/count deltas). Values are converted seconds -> ms.
struct HistStats {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

HistStats hist_delta_ms(const obs::HistogramSnapshot& before,
                        const obs::HistogramSnapshot& after) {
  HistStats s;
  const std::uint64_t count = after.count - before.count;
  if (count == 0) return s;
  s.mean_ms = (after.sum - before.sum) / static_cast<double>(count) * 1e3;
  const auto bucket_percentile = [&](double p) {
    const auto rank = static_cast<std::uint64_t>(
        p * static_cast<double>(count - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < after.buckets.size(); ++i) {
      seen += after.buckets[i] - before.buckets[i];
      if (seen > rank) return obs::bucket_le(i) * 1e3;
    }
    return obs::bucket_le(after.buckets.size() - 1) * 1e3;
  };
  s.p50_ms = bucket_percentile(0.50);
  s.p95_ms = bucket_percentile(0.95);
  s.p99_ms = bucket_percentile(0.99);
  return s;
}

std::vector<Tensor> make_windows(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> windows;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    windows.push_back(Tensor::randn({kFeatures, kWindow}, rng));
  return windows;
}

LatencyStats bench_single_stream(const serve::InferenceSession& session) {
  const auto windows = make_windows(64, 11);
  Tensor one({1, kFeatures, kWindow});
  const auto run_one = [&](std::size_t i) {
    const Tensor& w = windows[i % windows.size()];
    std::copy_n(w.raw(), w.size(), one.raw());
    return session.run(one);
  };
  for (std::size_t i = 0; i < kSingleWarmup; ++i) run_one(i);

  std::vector<double> latencies;
  latencies.reserve(kSingleRequests);
  Stopwatch wall;
  for (std::size_t i = 0; i < kSingleRequests; ++i) {
    Stopwatch req;
    run_one(i);
    latencies.push_back(req.elapsed_seconds());
  }
  return summarize(latencies, wall.elapsed_seconds());
}

/// One batched run under the executor the planning switch selects.
struct BatchedRun {
  LatencyStats latency;
  HistStats queue_wait;  ///< time coalescing in the queue
  HistStats forward;     ///< per-batch model forward
  double avg_batch_size = 0.0;
};

BatchedRun bench_batched(
    const std::shared_ptr<const serve::InferenceSession>& session) {
  serve::EngineOptions opt;
  opt.max_batch = 32;
  opt.max_delay_us = 200;
  auto engine = std::make_unique<serve::BatchingEngine>(opt);

  // Warmup: one full coalesced batch.
  {
    const auto windows = make_windows(opt.max_batch, 13);
    std::vector<std::future<Tensor>> futs;
    for (const Tensor& w : windows) futs.push_back(engine->submit(w, session));
    for (auto& f : futs) f.get();
    // The worker counts a batch just after it delivers the batch's rows.
    while (engine->stats().completed < windows.size())
      std::this_thread::yield();
  }

  const std::uint64_t req0 = obs::metrics().counter("serve/requests").value();
  const std::uint64_t bat0 = obs::metrics().counter("serve/batches").value();
  obs::Histogram& queue_hist =
      obs::metrics().histogram("serve/queue_wait_seconds");
  obs::Histogram& forward_hist =
      obs::metrics().histogram("serve/forward_seconds");
  const obs::HistogramSnapshot queue0 = queue_hist.snapshot();
  const obs::HistogramSnapshot forward0 = forward_hist.snapshot();

  // Open-loop (saturating) load: submitters enqueue as fast as they can and
  // futures are harvested afterwards, so the measurement captures the
  // engine's sustainable throughput rather than client-thread scheduling.
  // Per-request latency is submit -> harvested; under saturation it is
  // dominated by queue depth, which is the honest number for this regime.
  using Clock = std::chrono::steady_clock;
  struct Issued {
    std::future<Tensor> future;
    Clock::time_point submitted;
  };
  std::vector<std::vector<Issued>> issued(kSubmitters);
  std::vector<std::thread> submitters;
  Stopwatch wall;
  for (std::size_t c = 0; c < kSubmitters; ++c)
    submitters.emplace_back([&, c] {
      const auto windows = make_windows(16, 100 + c);
      issued[c].reserve(kRequestsPerSubmitter);
      for (std::size_t i = 0; i < kRequestsPerSubmitter; ++i)
        issued[c].push_back(
            {engine->submit(windows[i % windows.size()], session),
             Clock::now()});
    });
  for (auto& t : submitters) t.join();

  std::vector<double> all;
  all.reserve(kSubmitters * kRequestsPerSubmitter);
  for (auto& per_submitter : issued)
    for (Issued& request : per_submitter) {
      request.future.get();
      all.push_back(
          std::chrono::duration<double>(Clock::now() - request.submitted)
              .count());
    }
  const double wall_s = wall.elapsed_seconds();
  engine.reset();  // joining the worker puts its last batch in the counters

  const std::uint64_t requests =
      obs::metrics().counter("serve/requests").value() - req0;
  const std::uint64_t batches =
      obs::metrics().counter("serve/batches").value() - bat0;
  BatchedRun run;
  run.latency = summarize(all, wall_s);
  run.queue_wait = hist_delta_ms(queue0, queue_hist.snapshot());
  run.forward = hist_delta_ms(forward0, forward_hist.snapshot());
  run.avg_batch_size = batches > 0 ? static_cast<double>(requests) /
                                         static_cast<double>(batches)
                                   : 0.0;
  return run;
}

/// One model under one executor (tape or planned).
struct ExecReport {
  LatencyStats single;
  BatchedRun batched;  ///< the median-throughput batched run
  double speedup_batched_vs_single = 0.0;
};

struct ModelReport {
  const char* name;
  ExecReport tape;
  ExecReport planned;
  double speedup_single = 0.0;   ///< planned vs tape, single-stream
  double speedup_batched = 0.0;  ///< planned vs tape, batched: median ratio
  std::vector<double> batched_ratios;  ///< planned / tape, per repeat
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The run of median throughput (runs.size() is odd).
BatchedRun median_run(std::vector<BatchedRun> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const BatchedRun& a, const BatchedRun& b) {
              return a.latency.throughput_rps < b.latency.throughput_rps;
            });
  return runs[runs.size() / 2];
}

ModelReport bench_model(const char* name,
                        std::shared_ptr<const serve::InferenceSession> session) {
  ModelReport r;
  r.name = name;
  graph::set_planning_enabled(false);
  r.tape.single = bench_single_stream(*session);
  graph::set_planning_enabled(true);
  r.planned.single = bench_single_stream(*session);

  std::vector<BatchedRun> tape_runs;
  std::vector<BatchedRun> planned_runs;
  for (std::size_t rep = 0; rep < kBatchedRepeats; ++rep) {
    // Alternate which executor goes first, so host drift favours neither.
    for (const bool planned : {rep % 2 == 1, rep % 2 == 0}) {
      graph::set_planning_enabled(planned);
      (planned ? planned_runs : tape_runs).push_back(bench_batched(session));
    }
    r.batched_ratios.push_back(
        ratio(planned_runs.back().latency.throughput_rps,
              tape_runs.back().latency.throughput_rps));
  }
  graph::set_planning_enabled(true);  // restore the process default
  r.tape.batched = median_run(tape_runs);
  r.planned.batched = median_run(planned_runs);

  for (ExecReport* e : {&r.tape, &r.planned})
    e->speedup_batched_vs_single = ratio(e->batched.latency.throughput_rps,
                                         e->single.throughput_rps);
  r.speedup_single =
      ratio(r.planned.single.throughput_rps, r.tape.single.throughput_rps);
  std::vector<double> sorted = r.batched_ratios;
  std::sort(sorted.begin(), sorted.end());
  r.speedup_batched = sorted[sorted.size() / 2];
  const auto print_exec = [](const char* label, const ExecReport& e) {
    std::cout << "    " << label << " single: " << e.single.throughput_rps
              << " req/s p50 " << e.single.p50_ms << " ms | batched: "
              << e.batched.latency.throughput_rps << " req/s p50 "
              << e.batched.latency.p50_ms << " ms (queue p50 "
              << e.batched.queue_wait.p50_ms << " ms, forward p50 "
              << e.batched.forward.p50_ms << " ms, avg batch "
              << e.batched.avg_batch_size << ")\n";
  };
  std::cout << "  " << name << ":\n";
  print_exec("tape   ", r.tape);
  print_exec("planned", r.planned);
  std::cout << "    planned vs tape: single " << r.speedup_single
            << "x, batched " << r.speedup_batched << "x (median of "
            << kBatchedRepeats << " alternating pairs)\n";
  return r;
}

void emit_stats(std::ofstream& out, const LatencyStats& s, const char* indent) {
  out << indent << "\"throughput_rps\": " << s.throughput_rps << ",\n"
      << indent << "\"latency_ms\": {\"p50\": " << s.p50_ms
      << ", \"p95\": " << s.p95_ms << ", \"p99\": " << s.p99_ms
      << ", \"mean\": " << s.mean_ms << "}";
}

void emit_hist(std::ofstream& out, const char* name, const HistStats& h,
               const char* indent) {
  out << indent << "\"" << name << "\": {\"p50\": " << h.p50_ms
      << ", \"p95\": " << h.p95_ms << ", \"p99\": " << h.p99_ms
      << ", \"mean\": " << h.mean_ms << "}";
}

void emit_model(std::ofstream& out, const ModelReport& r, bool last) {
  out << "    \"" << r.name << "\": {\n"
      << "      \"single_stream\": {\n";
  const ExecReport* execs[] = {&r.tape, &r.planned};
  const char* exec_names[] = {"tape", "planned"};
  for (std::size_t e = 0; e < 2; ++e) {
    out << "        \"" << exec_names[e] << "\": {\n";
    emit_stats(out, execs[e]->single, "          ");
    out << "\n        }" << (e == 0 ? "," : "") << "\n";
  }
  out << "      },\n"
      << "      \"batched\": {\n";
  for (std::size_t e = 0; e < 2; ++e) {
    const BatchedRun& b = execs[e]->batched;
    out << "        \"" << exec_names[e] << "\": {\n";
    emit_stats(out, b.latency, "          ");
    out << ",\n";
    emit_hist(out, "queue_wait_ms", b.queue_wait, "          ");
    out << ",\n";
    emit_hist(out, "forward_ms", b.forward, "          ");
    out << ",\n          \"avg_batch_size\": " << b.avg_batch_size
        << "\n        }" << (e == 0 ? "," : "") << "\n";
  }
  out << "      },\n"
      << "      \"speedup_planned_vs_tape\": {\"single_stream\": "
      << r.speedup_single << ", \"batched\": " << r.speedup_batched
      << ", \"batched_per_repeat\": [";
  for (std::size_t i = 0; i < r.batched_ratios.size(); ++i)
    out << (i == 0 ? "" : ", ") << r.batched_ratios[i];
  out << "]},\n"
      << "      \"speedup_batched_vs_single\": {\"tape\": "
      << r.tape.speedup_batched_vs_single << ", \"planned\": "
      << r.planned.speedup_batched_vs_single << "}\n"
      << "    }" << (last ? "" : ",") << "\n";
}

int run(int argc, char** argv) {
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];

  obs::set_enabled(true);  // engine counters + latency-split histograms

  std::cout << "=== RPTCN serving bench ===\n"
            << "features " << kFeatures << ", window " << kWindow << ", "
            << kSubmitters << " open-loop submitters, max_batch 32, "
            << kBatchedRepeats << " alternating tape/planned batched pairs\n\n";

  nn::RptcnOptions ropt;
  ropt.input_features = kFeatures;
  ropt.horizon = 1;
  ropt.tcn.channels = {16, 16, 16};
  ropt.tcn.kernel_size = 3;
  ropt.fc_dim = 16;
  ropt.seed = 42;
  nn::RptcnNet rptcn_net(ropt);
  const ModelReport rptcn = bench_model(
      "rptcn", std::make_shared<serve::InferenceSession>(rptcn_net));

  nn::LstmNetOptions lopt;
  lopt.input_features = kFeatures;
  lopt.hidden = 64;
  lopt.horizon = 1;
  lopt.seed = 42;
  nn::LstmNet lstm_net(lopt);
  const ModelReport lstm =
      bench_model("lstm", std::make_shared<serve::InferenceSession>(lstm_net));

  // Two headline numbers. Batching's is the LSTM profile (per-call-overhead
  // bound at N=1, the workload micro-batching targets), measured on the
  // tape executor where that per-call overhead lives — the planned executor
  // already removes much of it at N=1, which legitimately shrinks the
  // batching ratio without any engine regression. Planning's headline is
  // the conv-bound rptcn batched profile, where the arena executor's
  // direct GEMM writes and fused epilogues bite.
  std::cout << "\nheadline speedup (lstm tape, batched vs single-stream): "
            << lstm.tape.speedup_batched_vs_single << "x\n"
            << "headline speedup (rptcn batched, planned vs tape): "
            << rptcn.speedup_batched << "x\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"rptcn_serving\",\n"
      << "  \"shape\": {\"features\": " << kFeatures
      << ", \"window\": " << kWindow << "},\n"
      << "  \"engine\": {\"max_batch\": 32, \"max_delay_us\": 200, "
      << "\"submitters\": " << kSubmitters << "},\n"
      << "  \"requests\": {\"single_stream\": " << kSingleRequests
      << ", \"batched\": " << kSubmitters * kRequestsPerSubmitter
      << ", \"batched_repeats\": " << kBatchedRepeats << "},\n"
      << "  \"models\": {\n";
  emit_model(out, rptcn, /*last=*/false);
  emit_model(out, lstm, /*last=*/true);
  out << "  },\n"
      << "  \"speedup_batched_vs_single\": "
      << lstm.tape.speedup_batched_vs_single << ",\n"
      << "  \"speedup_planned_vs_tape\": " << rptcn.speedup_batched
      << "\n}\n";
  std::cout << "[json] wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace rptcn

int main(int argc, char** argv) { return rptcn::run(argc, argv); }
