// Golden-trajectory regression test.
//
// Runs the full fixed-seed pipeline — simulated trace -> Algorithm 1
// (clean, normalise, PCC screen, expansion, windows) -> 2-epoch RPTCN
// train -> predict — and compares a handful of trajectory metrics against
// the committed fixture in tests/golden/. Every metric carries an explicit
// absolute + relative tolerance: wide enough to absorb libm variation
// across toolchains, tight enough that a kernel or preprocessing bug that
// moves a Table II metric fails loudly.
//
// To regenerate after an intentional numerics change:
//   RPTCN_UPDATE_GOLDEN=1 ./rptcn_tests --gtest_filter='GoldenPipeline.*'
// and commit the rewritten tests/golden/rptcn_pipeline.csv.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "graph/plan.h"
#include "serve/session.h"
#include "trace/cluster.h"

#ifndef RPTCN_GOLDEN_DIR
#error "RPTCN_GOLDEN_DIR must point at the committed fixture directory"
#endif

namespace rptcn {
namespace {

struct GoldenEntry {
  double value = 0.0;
  double abs_tol = 0.0;
  double rel_tol = 0.0;
};

using GoldenMap = std::map<std::string, GoldenEntry>;

std::string golden_path() {
  return std::string(RPTCN_GOLDEN_DIR) + "/rptcn_pipeline.csv";
}

GoldenMap read_golden(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden fixture: " << path;
  GoldenMap golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string key, value, abs_tol, rel_tol;
    if (!std::getline(row, key, ',') || !std::getline(row, value, ',') ||
        !std::getline(row, abs_tol, ',') || !std::getline(row, rel_tol, ','))
      ADD_FAILURE() << "malformed golden line: " << line;
    else
      golden[key] = {std::stod(value), std::stod(abs_tol), std::stod(rel_tol)};
  }
  return golden;
}

void write_golden(const std::string& path, const GoldenMap& golden) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write golden fixture: " << path;
  out << "# Golden trajectory for the fixed-seed RPTCN pipeline\n"
         "# (tests/test_golden_pipeline.cpp). Regenerate with\n"
         "# RPTCN_UPDATE_GOLDEN=1 after intentional numerics changes.\n"
         "# key,value,abs_tol,rel_tol\n";
  out.precision(17);
  for (const auto& [key, entry] : golden)
    out << key << ',' << entry.value << ',' << entry.abs_tol << ','
        << entry.rel_tol << '\n';
}

/// The fixed-seed pipeline behind the trajectory: tiny simulated cluster,
/// Mul-Exp scenario, 2-epoch RPTCN. Every knob is pinned; any observable
/// drift comes from the code, not the configuration.
std::unique_ptr<core::RptcnPipeline> fit_golden_pipeline() {
  trace::TraceConfig trace_cfg;
  trace_cfg.num_machines = 2;
  trace_cfg.duration_steps = 400;
  trace_cfg.seed = 123;
  trace::ClusterSimulator sim(trace_cfg);
  sim.run();

  core::PipelineConfig cfg;
  cfg.target = "cpu_util_percent";
  cfg.model_name = "RPTCN";
  cfg.scenario = core::Scenario::kMulExp;
  cfg.prepare.window.window = 16;
  cfg.prepare.window.horizon = 1;
  cfg.model.nn.max_epochs = 2;
  cfg.model.nn.patience = 2;
  cfg.model.nn.seed = 7;
  cfg.model.rptcn.tcn.channels = {8, 8};
  cfg.model.rptcn.fc_dim = 8;

  auto pipeline = std::make_unique<core::RptcnPipeline>(cfg);
  pipeline->fit(sim.machine_trace(0));
  return pipeline;
}

std::map<std::string, double> run_trajectory() {
  const auto pipeline_ptr = fit_golden_pipeline();
  core::RptcnPipeline& pipeline = *pipeline_ptr;

  const auto acc = pipeline.test_accuracy();
  const auto& curves = pipeline.curves();
  const Tensor preds = pipeline.predict_test();
  double pred_abs_sum = 0.0;
  for (float v : preds.data()) pred_abs_sum += std::abs(v);
  const auto next = pipeline.predict_next();

  std::map<std::string, double> m;
  m["test_mse"] = acc.mse;
  m["test_mae"] = acc.mae;
  m["final_train_loss"] = curves.train_loss.back();
  m["final_valid_loss"] = curves.valid_loss.back();
  m["pred_mean_abs"] = pred_abs_sum / static_cast<double>(preds.size());
  m["predict_next_0"] = next.front();
  return m;
}

GoldenEntry with_default_tolerance(const std::string& key, double value) {
  // 2% relative catches any kernel/preprocessing regression (those move
  // losses by 10s of percent) while absorbing cross-toolchain libm noise
  // (measured well under 0.1%). The absolute floor covers near-zero values.
  GoldenEntry e;
  e.value = value;
  e.rel_tol = 2e-2;
  e.abs_tol = key == "predict_next_0" ? 1e-3 : 1e-6;
  return e;
}

TEST(GoldenPipeline, TrajectoryMatchesCommittedFixture) {
  const auto metrics = run_trajectory();

  if (std::getenv("RPTCN_UPDATE_GOLDEN") != nullptr) {
    GoldenMap fresh;
    for (const auto& [key, value] : metrics)
      fresh[key] = with_default_tolerance(key, value);
    write_golden(golden_path(), fresh);
    GTEST_LOG_(INFO) << "rewrote " << golden_path();
  }

  const GoldenMap golden = read_golden(golden_path());
  ASSERT_EQ(golden.size(), metrics.size())
      << "fixture key set out of sync with the test; regenerate with "
         "RPTCN_UPDATE_GOLDEN=1";
  for (const auto& [key, entry] : golden) {
    const auto it = metrics.find(key);
    ASSERT_NE(it, metrics.end()) << "fixture has unknown key " << key;
    const double tol = entry.abs_tol + entry.rel_tol * std::abs(entry.value);
    EXPECT_NEAR(it->second, entry.value, tol)
        << key << " drifted from the golden trajectory (allowed ±" << tol
        << "); if intentional, regenerate with RPTCN_UPDATE_GOLDEN=1";
  }
}

TEST(GoldenPipeline, PlannedServingIsBitIdenticalOnGoldenTrajectory) {
  // End-to-end gate for the JIT-lite executor: serve the golden pipeline's
  // fitted RPTCN (realistic feature count after PCC screening + Mul-Exp
  // expansion) through an InferenceSession and require every planned batched
  // row to be bit-identical to the eager single-window forward — the same
  // contract test_graph.cpp checks on synthetic nets, here on the full
  // Algorithm 1 data path.
  const bool planning_was = graph::planning_enabled();
  const auto pipeline = fit_golden_pipeline();
  ASSERT_TRUE(pipeline->fitted());
  serve::InferenceSession session(*pipeline->forecaster());

  const auto& test = pipeline->dataset().test;
  const std::size_t n = std::min<std::size_t>(6, test.samples());
  const std::size_t f = test.inputs.dim(1);
  const std::size_t t = test.inputs.dim(2);
  ASSERT_GT(n, 0u);
  Tensor batch({n, f, t});
  std::copy_n(test.inputs.raw(), n * f * t, batch.raw());

  graph::set_planning_enabled(true);
  const Tensor planned = session.run(batch);

  graph::set_planning_enabled(false);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor one({1, f, t});
    std::copy_n(test.inputs.raw() + i * f * t, f * t, one.raw());
    const Tensor eager = session.run(one);
    for (std::size_t h = 0; h < planned.dim(1); ++h)
      ASSERT_EQ(planned.at(i, h), eager.at(0, h))
          << "planned row " << i << " diverges from the eager forward";
  }
  graph::set_planning_enabled(planning_was);
}

TEST(GoldenPipeline, TrajectoryIsDeterministic) {
  // The comparison above is only meaningful if the trajectory itself is
  // reproducible within one binary.
  const auto a = run_trajectory();
  const auto b = run_trajectory();
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, value] : a) {
    ASSERT_TRUE(b.count(key)) << key;
    EXPECT_DOUBLE_EQ(value, b.at(key)) << key;
  }
}

}  // namespace
}  // namespace rptcn
