#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "data/correlation.h"
#include "trace/characterize.h"
#include "trace/cluster.h"
#include "trace/indicators.h"
#include "trace/workload_model.h"

namespace rptcn::trace {
namespace {

TraceConfig small_config() {
  TraceConfig cfg;
  cfg.num_machines = 12;
  cfg.duration_steps = 1200;
  cfg.seed = 2018;
  return cfg;
}

const ClusterSimulator& shared_sim() {
  static ClusterSimulator* sim = [] {
    auto* s = new ClusterSimulator(small_config());
    s->run();
    return s;
  }();
  return *sim;
}

TEST(Indicators, NamesMatchTableOne) {
  EXPECT_EQ(indicator_name(Indicator::kCpuUtilPercent), "cpu_util_percent");
  EXPECT_EQ(indicator_name(Indicator::kCpi), "cpi");
  EXPECT_EQ(indicator_name(Indicator::kMpki), "mpki");
  EXPECT_EQ(indicator_name(Indicator::kMemGps), "mem_gps");
  EXPECT_EQ(indicator_names().size(), kIndicatorCount);
  EXPECT_FALSE(indicator_meaning(Indicator::kNetIn).empty());
}

TEST(WorkloadModel, EmitsSamplesInPhysicalRanges) {
  Rng prng(1);
  WorkloadParams params = sample_params(WorkloadClass::kOnlineService, prng);
  WorkloadModel model(params, 42);
  for (int t = 0; t < 2000; ++t) {
    const auto s = model.step(0.3);
    EXPECT_GE(s[Indicator::kCpuUtilPercent], 0.0);
    EXPECT_LE(s[Indicator::kCpuUtilPercent], 100.0);
    EXPECT_GE(s[Indicator::kMemUtilPercent], 0.0);
    EXPECT_LE(s[Indicator::kMemUtilPercent], 100.0);
    EXPECT_GE(s[Indicator::kCpi], 0.3);
    EXPECT_GE(s[Indicator::kMpki], 0.0);
    EXPECT_GE(s[Indicator::kMemGps], 0.0);
    EXPECT_LE(s[Indicator::kMemGps], 1.0);
    EXPECT_GE(s[Indicator::kNetIn], 0.0);
    EXPECT_LE(s[Indicator::kNetIn], 1.0);
    EXPECT_GE(s[Indicator::kDiskIoPercent], 0.0);
    EXPECT_LE(s[Indicator::kDiskIoPercent], 100.0);
  }
}

TEST(WorkloadModel, DeterministicGivenSeed) {
  Rng prng(2);
  const WorkloadParams params = sample_params(WorkloadClass::kBatchJob, prng);
  WorkloadModel a(params, 7), b(params, 7);
  for (int t = 0; t < 200; ++t) {
    const auto sa = a.step(0.5);
    const auto sb = b.step(0.5);
    for (std::size_t k = 0; k < kIndicatorCount; ++k)
      ASSERT_DOUBLE_EQ(sa.values[k], sb.values[k]);
  }
}

TEST(WorkloadModel, ContentionThrottlesAndDegrades) {
  // Heavy contention should raise cpi on average (interference signature).
  Rng prng(3);
  const WorkloadParams params =
      sample_params(WorkloadClass::kStreaming, prng);
  WorkloadModel calm(params, 11), loaded(params, 11);
  double cpi_calm = 0.0, cpi_loaded = 0.0;
  const int n = 3000;
  for (int t = 0; t < n; ++t) {
    cpi_calm += calm.step(0.1)[Indicator::kCpi];
    cpi_loaded += loaded.step(0.95)[Indicator::kCpi];
  }
  EXPECT_GT(cpi_loaded / n, cpi_calm / n + 0.2);
}

TEST(WorkloadModel, RejectsBadContention) {
  Rng prng(4);
  WorkloadModel model(sample_params(WorkloadClass::kBatchJob, prng), 1);
  EXPECT_THROW(model.step(-0.1), CheckError);
  EXPECT_THROW(model.step(1.5), CheckError);
}

TEST(Cluster, ConstructionValidatesConfig) {
  TraceConfig bad = small_config();
  bad.num_machines = 0;
  EXPECT_THROW(ClusterSimulator{bad}, CheckError);
  bad = small_config();
  bad.duration_steps = 1;
  EXPECT_THROW(ClusterSimulator{bad}, CheckError);
}

TEST(Cluster, AccessorsRequireRun) {
  ClusterSimulator sim(small_config());
  EXPECT_THROW(sim.container_trace(0), CheckError);
  EXPECT_THROW(sim.cluster_average_cpu(), CheckError);
}

TEST(Cluster, RunTwiceThrows) {
  ClusterSimulator sim(small_config());
  sim.run();
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(Cluster, ShapesAndIds) {
  const auto& sim = shared_sim();
  EXPECT_EQ(sim.num_machines(), 12u);
  EXPECT_GE(sim.num_containers(), 24u);  // >= 2 per machine
  EXPECT_LE(sim.num_containers(), 60u);  // <= 5 per machine
  const auto& frame = sim.container_trace(0);
  EXPECT_EQ(frame.indicators(), kIndicatorCount);
  EXPECT_EQ(frame.length(), 1200u);
  EXPECT_EQ(sim.container_info(0).id.rfind("c_", 0), 0u);
  EXPECT_EQ(sim.machine_id(0).rfind("m_", 0), 0u);
  EXPECT_EQ(sim.machine_trace(3).length(), 1200u);
}

TEST(Cluster, DeterministicAcrossRuns) {
  ClusterSimulator a(small_config()), b(small_config());
  a.run();
  b.run();
  const auto& fa = a.container_trace(2).column("cpu_util_percent");
  const auto& fb = b.container_trace(2).column("cpu_util_percent");
  for (std::size_t t = 0; t < fa.size(); ++t) ASSERT_DOUBLE_EQ(fa[t], fb[t]);
}

TEST(Cluster, DifferentSeedsProduceDifferentTraces) {
  TraceConfig cfg = small_config();
  cfg.seed = 9999;
  ClusterSimulator other(cfg);
  other.run();
  const auto& a = shared_sim().machine_trace(0).column("cpu_util_percent");
  const auto& b = other.machine_trace(0).column("cpu_util_percent");
  double diff = 0.0;
  for (std::size_t t = 0; t < a.size(); ++t) diff += std::fabs(a[t] - b[t]);
  EXPECT_GT(diff, 1.0);
}

TEST(Cluster, ShareBudgetsKeepMachinesUnderProvisioned) {
  const auto& sim = shared_sim();
  for (std::size_t m = 0; m < sim.num_machines(); ++m) {
    double total_share = 0.0;
    for (std::size_t c = 0; c < sim.num_containers(); ++c)
      if (sim.container_info(c).machine == m)
        total_share += sim.container_info(c).cpu_share;
    EXPECT_GT(total_share, 0.5);
    EXPECT_LT(total_share, 0.96);
  }
}

TEST(Cluster, EachMachineHostsTwoToFiveContainers) {
  // Placement happens at construction; a large cluster draws every count
  // in the range and none outside it.
  TraceConfig cfg = small_config();
  cfg.num_machines = 200;
  const ClusterSimulator sim(cfg);
  std::vector<std::size_t> hosted(sim.num_machines(), 0);
  for (std::size_t c = 0; c < sim.num_containers(); ++c)
    ++hosted[sim.container_info(c).machine];
  std::vector<std::size_t> machines_with(6, 0);
  for (const std::size_t n : hosted) {
    ASSERT_GE(n, 2u);
    ASSERT_LE(n, 5u);
    ++machines_with[n];
  }
  for (std::size_t n = 2; n <= 5; ++n)
    EXPECT_GT(machines_with[n], 0u) << n << " containers";
}

TEST(Cluster, MachineCpuIsItsContainersPlusAnOsFloor) {
  // Machine CPU = the share-weighted sum of its containers' CPU plus a
  // 5 % OS floor and N(0, 1 pp) noise.
  const auto& sim = shared_sim();
  for (std::size_t m = 0; m < sim.num_machines(); ++m) {
    const auto& machine = sim.machine_trace(m).column("cpu_util_percent");
    std::vector<double> residual(machine.begin(), machine.end());
    for (std::size_t c = 0; c < sim.num_containers(); ++c) {
      if (sim.container_info(c).machine != m) continue;
      const double share = sim.container_info(c).cpu_share;
      const auto& cpu = sim.container_trace(c).column("cpu_util_percent");
      for (std::size_t t = 0; t < residual.size(); ++t)
        residual[t] -= share * cpu[t];
    }
    double sum = 0.0;
    for (const double v : residual) sum += v;
    EXPECT_NEAR(sum / static_cast<double>(residual.size()), 5.0, 0.15)
        << sim.machine_id(m);
  }
}

// --- Calibration against the paper's Figs. 2, 3 and 7 ----------------------

TEST(Calibration, Fig2ClusterAverageMostlyBelow60Percent) {
  // Paper: cluster-average CPU < 0.6 for at least 75 % of the time.
  EXPECT_GE(fraction_time_below(shared_sim(), 0.6), 0.75);
}

TEST(Calibration, Fig3MostMachinesBelow50Percent) {
  // Paper: more than 80 % of machines stay below 50 % CPU on average.
  EXPECT_GT(fraction_machines_below(shared_sim(), 0.5), 0.8);
}

TEST(Calibration, Fig7TopFourIndicators) {
  // Paper Fig. 7: strongest CPU correlates are cpu, mpki, cpi, mem_gps.
  // Check on several containers; require it to hold for a clear majority
  // (the paper itself shows one container).
  const auto& sim = shared_sim();
  std::size_t hits = 0;
  const std::size_t n_check = std::min<std::size_t>(10, sim.num_containers());
  for (std::size_t c = 0; c < n_check; ++c) {
    const auto ranked =
        data::rank_by_correlation(sim.container_trace(c), "cpu_util_percent");
    std::set<std::string> top4 = {ranked[0].name, ranked[1].name,
                                  ranked[2].name, ranked[3].name};
    const std::set<std::string> expected = {"cpu_util_percent", "mpki", "cpi",
                                            "mem_gps"};
    if (top4 == expected) ++hits;
  }
  EXPECT_GE(hits, n_check - 2);
}

TEST(Calibration, ContainersAreHighDynamic) {
  // Fig. 1: container CPU shows mutation points, not smooth periodicity.
  // Aggregate over several containers for a stable statistic.
  std::size_t total = 0;
  const std::size_t n_check =
      std::min<std::size_t>(8, shared_sim().num_containers());
  for (std::size_t c = 0; c < n_check; ++c) {
    const auto& cpu =
        shared_sim().container_trace(c).column("cpu_util_percent");
    total += mutation_points(cpu, 1.0, /*lag=*/3);
  }
  EXPECT_GT(total / n_check, 3u);  // several >1-sigma 3-step moves each
}

TEST(Characterize, BoxplotsPerInterval) {
  const auto boxes = cpu_boxplots_per_interval(shared_sim(), 300);
  ASSERT_EQ(boxes.size(), 4u);
  for (const auto& b : boxes) {
    EXPECT_LE(b.q1, b.median);
    EXPECT_LE(b.median, b.q3);
    EXPECT_GE(b.min, 0.0);
    EXPECT_LE(b.max, 1.0);
  }
}

TEST(Characterize, MachinesBelowPerInterval) {
  const auto fractions =
      fraction_machines_below_per_interval(shared_sim(), 0.5, 300);
  ASSERT_EQ(fractions.size(), 4u);
  for (double f : fractions) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(Characterize, SummariesCoverAllIndicators) {
  const auto summaries = summarize_frame(shared_sim().container_trace(1));
  ASSERT_EQ(summaries.size(), kIndicatorCount);
  for (const auto& s : summaries) {
    EXPECT_LE(s.min, s.mean);
    EXPECT_LE(s.mean, s.max);
    EXPECT_GE(s.stddev, 0.0);
  }
}

TEST(Characterize, MutationPointsEdgeCases) {
  EXPECT_EQ(mutation_points({1.0, 1.0, 1.0}, 2.0), 0u);  // constant
  EXPECT_THROW(mutation_points({1.0}, 2.0), CheckError);
}

}  // namespace
}  // namespace rptcn::trace
