#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "trace/cluster.h"

namespace rptcn::core {
namespace {

const data::TimeSeriesFrame& container_frame() {
  static data::TimeSeriesFrame* frame = [] {
    trace::TraceConfig cfg;
    cfg.num_machines = 2;
    cfg.duration_steps = 900;
    cfg.seed = 4242;
    auto sim = std::make_unique<trace::ClusterSimulator>(cfg);
    sim->run();
    return new data::TimeSeriesFrame(sim->container_trace(0));
  }();
  return *frame;
}

PrepareOptions small_prepare() {
  PrepareOptions opt;
  opt.window.window = 16;
  opt.window.horizon = 1;
  return opt;
}

models::ModelConfig small_model() {
  models::ModelConfig cfg;
  cfg.nn.max_epochs = 6;
  cfg.nn.patience = 6;
  cfg.rptcn.tcn.channels = {8, 8};
  cfg.rptcn.fc_dim = 8;
  cfg.gbt.n_rounds = 30;
  return cfg;
}

TEST(Metrics, MseMaeKnownValues) {
  const std::vector<double> truth = {1.0, 2.0, 3.0};
  const std::vector<double> pred = {1.5, 2.0, 1.0};
  EXPECT_NEAR(mse(truth, pred), (0.25 + 0.0 + 4.0) / 3.0, 1e-12);
  EXPECT_NEAR(mae(truth, pred), (0.5 + 0.0 + 2.0) / 3.0, 1e-12);
  EXPECT_NEAR(rmse(truth, pred), std::sqrt(mse(truth, pred)), 1e-12);
}

TEST(Metrics, RejectsMismatchedLengths) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(mse(a, b), CheckError);
  EXPECT_THROW(mae(std::vector<double>{}, std::vector<double>{}), CheckError);
}

TEST(Metrics, ImprovementPercent) {
  EXPECT_NEAR(improvement_percent(2.0, 1.0), 50.0, 1e-12);
  EXPECT_NEAR(improvement_percent(1.0, 2.0), -100.0, 1e-12);
  EXPECT_THROW(improvement_percent(0.0, 1.0), CheckError);
}

TEST(Scenario, NamesRoundTrip) {
  EXPECT_EQ(scenario_name(Scenario::kUni), "Uni");
  EXPECT_EQ(scenario_name(Scenario::kMul), "Mul");
  EXPECT_EQ(scenario_name(Scenario::kMulExp), "Mul-Exp");
  EXPECT_EQ(scenario_from_name("Uni"), Scenario::kUni);
  EXPECT_EQ(scenario_from_name("Mul-Exp"), Scenario::kMulExp);
  EXPECT_EQ(scenario_from_name("MulExp"), Scenario::kMulExp);
  EXPECT_THROW(scenario_from_name("Tri"), CheckError);
}

TEST(Scenario, UniKeepsOnlyTarget) {
  const auto prep = prepare_scenario(container_frame(), "cpu_util_percent",
                                     Scenario::kUni, small_prepare());
  EXPECT_EQ(prep.features.indicators(), 1u);
  EXPECT_EQ(prep.features.name(0), "cpu_util_percent");
  EXPECT_EQ(prep.dataset.target_channel, 0u);
  EXPECT_EQ(prep.dataset.train.inputs.dim(1), 1u);
}

TEST(Scenario, MulKeepsTopHalf) {
  const auto prep = prepare_scenario(container_frame(), "cpu_util_percent",
                                     Scenario::kMul, small_prepare());
  // 8 indicators -> top half = 4, target first.
  EXPECT_EQ(prep.features.indicators(), 4u);
  EXPECT_EQ(prep.features.name(0), "cpu_util_percent");
  EXPECT_EQ(prep.dataset.train.inputs.dim(1), 4u);
}

TEST(Scenario, MulExpExpandsFeatures) {
  auto opt = small_prepare();
  opt.expansion.copies = 3;
  const auto prep = prepare_scenario(container_frame(), "cpu_util_percent",
                                     Scenario::kMulExp, opt);
  EXPECT_EQ(prep.features.indicators(), 12u);  // 4 kept x 3 copies
  EXPECT_EQ(prep.dataset.target_channel, 0u);  // cpu unlagged comes first
}

TEST(Scenario, NormalisedFeaturesInUnitRange) {
  const auto prep = prepare_scenario(container_frame(), "cpu_util_percent",
                                     Scenario::kMul, small_prepare());
  for (std::size_t c = 0; c < prep.features.indicators(); ++c)
    for (double v : prep.features.column(c)) {
      ASSERT_GE(v, -1e-9);
      ASSERT_LE(v, 1.0 + 1e-9);
    }
}

TEST(Scenario, SplitSizesFollowPaperRatio) {
  const auto prep = prepare_scenario(container_frame(), "cpu_util_percent",
                                     Scenario::kUni, small_prepare());
  const auto& ds = prep.dataset;
  const double total = static_cast<double>(
      ds.train.samples() + ds.valid.samples() + ds.test.samples());
  EXPECT_NEAR(ds.train.samples() / total, 0.6, 0.02);
  EXPECT_NEAR(ds.valid.samples() / total, 0.2, 0.02);
}

TEST(Scenario, RejectsUnknownTarget) {
  EXPECT_THROW(prepare_scenario(container_frame(), "gpu_util",
                                Scenario::kUni, small_prepare()),
               CheckError);
}

TEST(Pipeline, EndToEndRptcn) {
  PipelineConfig cfg;
  cfg.scenario = Scenario::kMulExp;
  cfg.prepare = small_prepare();
  cfg.model = small_model();
  RptcnPipeline pipeline(cfg);
  EXPECT_FALSE(pipeline.fitted());
  EXPECT_THROW(pipeline.predict_next(), CheckError);

  pipeline.fit(container_frame());
  EXPECT_TRUE(pipeline.fitted());

  const auto acc = pipeline.test_accuracy();
  EXPECT_TRUE(std::isfinite(acc.mse));
  EXPECT_GT(acc.mse, 0.0);
  EXPECT_LT(acc.mse, 0.25);  // normalised units: must be far below trivial

  const auto next = pipeline.predict_next();
  ASSERT_EQ(next.size(), 1u);
  // Back in raw units: plausible CPU percentage.
  EXPECT_GT(next[0], -20.0);
  EXPECT_LT(next[0], 120.0);

  EXPECT_FALSE(pipeline.curves().train_loss.empty());
}

TEST(Pipeline, WorksWithEveryScenario) {
  for (const Scenario sc :
       {Scenario::kUni, Scenario::kMul, Scenario::kMulExp}) {
    PipelineConfig cfg;
    cfg.scenario = sc;
    cfg.model_name = "XGBoost";  // fastest model for a scenario sweep
    cfg.prepare = small_prepare();
    cfg.model = small_model();
    RptcnPipeline pipeline(cfg);
    pipeline.fit(container_frame());
    EXPECT_TRUE(std::isfinite(pipeline.test_accuracy().mse));
  }
}

TEST(Experiment, RunAndAggregate) {
  std::vector<ExperimentResult> results;
  for (std::uint64_t seed : {1u, 2u}) {
    auto model = small_model();
    model.nn.seed = seed;
    results.push_back(run_experiment(container_frame(), "cpu_util_percent",
                                     "XGBoost", Scenario::kMul,
                                     small_prepare(), model));
  }
  EXPECT_EQ(results[0].model, "XGBoost");
  EXPECT_EQ(results[0].scenario, "Mul");
  EXPECT_GT(results[0].test_samples, 0u);
  EXPECT_GE(results[0].fit_seconds, 0.0);
  EXPECT_EQ(results[0].predictions.shape(), results[0].targets.shape());

  const auto agg = aggregate(results);
  EXPECT_EQ(agg.entities, 2u);
  EXPECT_NEAR(agg.mse,
              (results[0].accuracy.mse + results[1].accuracy.mse) / 2.0,
              1e-12);
}

TEST(Scenario, DifferenceFeaturesAppended) {
  auto opt = small_prepare();
  opt.add_differences = true;
  const auto prep = prepare_scenario(container_frame(), "cpu_util_percent",
                                     Scenario::kMul, opt);
  // 4 screened indicators + 4 difference columns.
  EXPECT_EQ(prep.features.indicators(), 8u);
  EXPECT_TRUE(prep.features.has("cpu_util_percent.diff"));
  EXPECT_EQ(prep.dataset.target_channel, 0u);
}

TEST(Scenario, WeightedExpansionVariesCopies) {
  auto opt = small_prepare();
  opt.weighted_expansion = true;
  opt.expansion.copies = 4;
  const auto prep = prepare_scenario(container_frame(), "cpu_util_percent",
                                     Scenario::kMulExp, opt);
  // Target always gets the full 4 copies.
  EXPECT_TRUE(prep.features.has("cpu_util_percent.lag3"));
  // Uniform expansion would give exactly 16 columns; weighted gives fewer
  // unless every kept indicator has |PCC| ~ 1.
  EXPECT_LE(prep.features.indicators(), 16u);
  EXPECT_GE(prep.features.indicators(), 5u);
}

TEST(Pipeline, CheckpointRoundTrip) {
  PipelineConfig cfg;
  cfg.scenario = Scenario::kMul;
  cfg.prepare = small_prepare();
  cfg.model = small_model();
  RptcnPipeline trained(cfg);
  trained.fit(container_frame());
  const std::string path = ::testing::TempDir() + "/rptcn_pipeline.ckpt";
  ASSERT_EQ(trained.save_model(path), models::CheckpointStatus::kOk);

  RptcnPipeline restored(cfg);
  ASSERT_EQ(restored.restore(container_frame(), path),
            models::CheckpointStatus::kOk);
  ASSERT_TRUE(restored.fitted());
  const auto a = trained.test_accuracy();
  const auto b = restored.test_accuracy();
  EXPECT_DOUBLE_EQ(a.mse, b.mse);
  EXPECT_DOUBLE_EQ(a.mae, b.mae);
  // Forecasts must also agree exactly.
  const auto fa = trained.predict_next();
  const auto fb = restored.predict_next();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_DOUBLE_EQ(fa[i], fb[i]);
}

TEST(Pipeline, CheckpointUnsupportedForClassicalModels) {
  PipelineConfig cfg;
  cfg.model_name = "XGBoost";
  cfg.scenario = Scenario::kUni;
  cfg.prepare = small_prepare();
  cfg.model = small_model();
  RptcnPipeline pipeline(cfg);
  pipeline.fit(container_frame());
  EXPECT_EQ(pipeline.save_model(::testing::TempDir() + "/nope.ckpt"),
            models::CheckpointStatus::kUnsupported);
  RptcnPipeline other(cfg);
  EXPECT_EQ(other.restore(container_frame(), "/nonexistent"),
            models::CheckpointStatus::kUnsupported);
  EXPECT_FALSE(other.fitted());
}

TEST(Pipeline, CheckpointIoErrorLeavesPipelineUnfitted) {
  PipelineConfig cfg;
  cfg.scenario = Scenario::kMul;
  cfg.prepare = small_prepare();
  cfg.model = small_model();
  RptcnPipeline pipeline(cfg);
  EXPECT_EQ(pipeline.restore(container_frame(), "/nonexistent/rptcn.ckpt"),
            models::CheckpointStatus::kIoError);
  EXPECT_FALSE(pipeline.fitted());
}

TEST(Pipeline, CheckpointShapeMismatchDetected) {
  PipelineConfig cfg;
  cfg.scenario = Scenario::kMul;
  cfg.prepare = small_prepare();
  cfg.model = small_model();
  RptcnPipeline trained(cfg);
  trained.fit(container_frame());
  const std::string path = ::testing::TempDir() + "/rptcn_mismatch.ckpt";
  ASSERT_EQ(trained.save_model(path), models::CheckpointStatus::kOk);

  PipelineConfig other_cfg = cfg;
  other_cfg.model.rptcn.fc_dim = cfg.model.rptcn.fc_dim + 3;
  RptcnPipeline other(other_cfg);
  EXPECT_EQ(other.restore(container_frame(), path),
            models::CheckpointStatus::kShapeMismatch);
  EXPECT_FALSE(other.fitted());
}

TEST(Experiment, AggregateRejectsMixedResults) {
  ExperimentResult a, b;
  a.model = "RPTCN";
  b.model = "LSTM";
  a.scenario = b.scenario = "Uni";
  EXPECT_THROW(aggregate({a, b}), CheckError);
  EXPECT_THROW(aggregate({}), CheckError);
}

}  // namespace
}  // namespace rptcn::core
