#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "models/arima_forecaster.h"
#include "models/gbt_forecaster.h"
#include "models/registry.h"
#include "serve/session.h"

namespace rptcn::models {
namespace {

/// A learnable multivariate dataset: target is a smooth AR process, one
/// auxiliary channel is a noisy copy (predictive), built straight into the
/// ForecastDataset layout (window 12, horizon 1 by default).
ForecastDataset make_dataset(std::size_t length = 500,
                             std::uint64_t seed = 31,
                             std::size_t horizon = 1) {
  Rng rng(seed);
  std::vector<double> target{0.5};
  for (std::size_t i = 1; i < length; ++i) {
    const double next = 0.5 + 0.85 * (target.back() - 0.5) +
                        0.03 * std::sin(static_cast<double>(i) * 0.2) +
                        rng.normal(0.0, 0.02);
    target.push_back(std::clamp(next, 0.0, 1.0));
  }
  data::TimeSeriesFrame frame;
  std::vector<double> aux(length);
  for (std::size_t i = 0; i < length; ++i)
    aux[i] = target[i] + rng.normal(0.0, 0.05);
  frame.add("cpu", target);
  frame.add("aux", std::move(aux));

  data::WindowOptions wopt;
  wopt.window = 12;
  wopt.horizon = horizon;
  const auto all = data::make_windows(frame, "cpu", wopt);
  auto split = data::chrono_split(all);

  ForecastDataset ds;
  ds.train = std::move(split.train);
  ds.valid = std::move(split.valid);
  ds.test = std::move(split.test);
  ds.window = wopt.window;
  ds.horizon = wopt.horizon;
  ds.target_channel = 0;
  ds.target_series = target;
  ds.train_len = ds.train.samples() + wopt.window;
  ds.valid_len = ds.valid.samples();
  return ds;
}

NnTrainConfig fast_nn() {
  NnTrainConfig cfg;
  cfg.max_epochs = 12;
  cfg.patience = 12;
  cfg.learning_rate = 2e-3f;
  cfg.seed = 5;
  return cfg;
}

ModelConfig fast_config() {
  ModelConfig cfg;
  cfg.nn = fast_nn();
  cfg.rptcn.tcn.channels = {8, 8};
  cfg.rptcn.fc_dim = 8;
  cfg.lstm.hidden = 12;
  cfg.cnn_lstm.conv_channels = 6;
  cfg.cnn_lstm.hidden = 12;
  cfg.gbt.n_rounds = 40;
  return cfg;
}

double variance_of_targets(const Tensor& targets) {
  double s = 0.0, s2 = 0.0;
  for (float v : targets.data()) {
    s += v;
    s2 += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(targets.size());
  const double m = s / n;
  return s2 / n - m * m;
}

TEST(Registry, KnowsAllModels) {
  const auto& names = forecaster_names();
  EXPECT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    const auto f = make_forecaster(name, fast_config());
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->name(), name);
  }
}

TEST(Registry, AcceptsCaseInsensitiveNames) {
  EXPECT_EQ(make_forecaster("rptcn", fast_config())->name(), "RPTCN");
  EXPECT_EQ(make_forecaster("Rptcn", fast_config())->name(), "RPTCN");
  EXPECT_EQ(make_forecaster("cnn-lstm", fast_config())->name(), "CNN-LSTM");
  EXPECT_EQ(make_forecaster("xgboost", fast_config())->name(), "XGBoost");
}

TEST(Registry, RejectsUnknownName) {
  EXPECT_THROW(make_forecaster("Prophet", fast_config()), CheckError);
  // The error must list every registered name so typos are self-diagnosing.
  try {
    make_forecaster("Prophet", fast_config());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown forecaster: Prophet"), std::string::npos);
    for (const auto& name : forecaster_names())
      EXPECT_NE(what.find(name), std::string::npos) << name;
  }
}

TEST(Accuracy, MatchesManualComputation) {
  const Tensor pred = Tensor::from({2, 1}, {1.0f, 3.0f});
  const Tensor truth = Tensor::from({2, 1}, {0.0f, 1.0f});
  const auto acc = evaluate_accuracy(pred, truth);
  EXPECT_NEAR(acc.mse, 2.5, 1e-9);
  EXPECT_NEAR(acc.mae, 1.5, 1e-9);
  EXPECT_THROW(evaluate_accuracy(pred, Tensor({3, 1})), CheckError);
}

// Parameterized over every registered model: fit+predict contract.
class ForecasterContract : public ::testing::TestWithParam<std::string> {};

TEST_P(ForecasterContract, FitPredictShapesAndSanity) {
  const auto ds = make_dataset();
  auto model = make_forecaster(GetParam(), fast_config());
  model->fit(ds);
  const Tensor preds = model->predict(ds.test.inputs);
  ASSERT_EQ(preds.shape(), ds.test.targets.shape());
  for (float v : preds.data()) ASSERT_TRUE(std::isfinite(v));
  // Every model must beat the constant-mean predictor on this easy series.
  const auto acc = evaluate_accuracy(preds, ds.test.targets);
  EXPECT_LT(acc.mse, variance_of_targets(ds.test.targets))
      << GetParam() << " failed to beat the mean predictor";
}

TEST_P(ForecasterContract, PredictBeforeFitThrows) {
  auto model = make_forecaster(GetParam(), fast_config());
  Tensor inputs({2, 2, 12});
  EXPECT_THROW(model->predict(inputs), CheckError);
}

/// True for the registry models with weight checkpoints (the NetForecaster
/// rows); ARIMA and XGBoost report kUnsupported instead.
bool has_checkpoints(const std::string& name) {
  return name != "ARIMA" && name != "XGBoost";
}

/// fast_config() cut to one epoch: checkpoint tests need fitted weights,
/// not accuracy.
ModelConfig one_epoch_config() {
  ModelConfig cfg = fast_config();
  cfg.nn.max_epochs = 1;
  cfg.nn.patience = 1;
  return cfg;
}

std::string checkpoint_path(const std::string& tag) {
  return ::testing::TempDir() + "contract_" + tag + ".ckpt";
}

TEST_P(ForecasterContract, FailedRestoreLeavesTheModelUnfitted) {
  const auto ds = make_dataset();
  auto model = make_forecaster(GetParam(), one_epoch_config());
  EXPECT_EQ(model->restore(ds, ::testing::TempDir() + "no_such_dir/x.ckpt"),
            has_checkpoints(GetParam()) ? CheckpointStatus::kIoError
                                        : CheckpointStatus::kUnsupported);
  EXPECT_THROW(model->predict(ds.test.inputs), CheckError);
  if (!has_checkpoints(GetParam())) return;

  // A horizon-1 checkpoint against a horizon-3 dataset: every layer before
  // the head loads, then the head mismatches. The half-loaded net must not
  // be served, nor the fit the restore replaced.
  model->fit(ds);
  const std::string path = checkpoint_path("h1_" + GetParam());
  ASSERT_EQ(model->save(path), CheckpointStatus::kOk);
  const auto ds3 = make_dataset(500, 31, 3);
  EXPECT_EQ(model->restore(ds3, path), CheckpointStatus::kShapeMismatch);
  EXPECT_THROW(model->predict(ds3.test.inputs), CheckError);
  EXPECT_THROW(serve::InferenceSession{*model}, CheckError);
  EXPECT_TRUE(model->curves().train_loss.empty());
}

TEST_P(ForecasterContract, CheckpointRestoreServesTheSameBits) {
  const auto ds = make_dataset();
  auto fitted = make_forecaster(GetParam(), one_epoch_config());
  fitted->fit(ds);
  const std::string path = checkpoint_path("round_trip_" + GetParam());
  auto restored = make_forecaster(GetParam(), one_epoch_config());
  if (!has_checkpoints(GetParam())) {
    EXPECT_EQ(fitted->save(path), CheckpointStatus::kUnsupported);
    EXPECT_EQ(restored->restore(ds, path), CheckpointStatus::kUnsupported);
    return;
  }
  ASSERT_EQ(fitted->save(path), CheckpointStatus::kOk);
  ASSERT_EQ(restored->restore(ds, path), CheckpointStatus::kOk);

  const serve::InferenceSession a(*fitted);
  const serve::InferenceSession b(*restored);
  const Tensor want = a.run(ds.test.inputs);
  const Tensor got = b.run(ds.test.inputs);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(), want.size() * sizeof(float)),
            0)
      << GetParam() << ": the restored model serves different bits";
}

INSTANTIATE_TEST_SUITE_P(AllModels, ForecasterContract,
                         ::testing::Values("ARIMA", "LSTM", "CNN-LSTM",
                                           "XGBoost", "RPTCN", "TCN",
                                           "BiLSTM"));

TEST(NnForecasters, SaveBeforeFitThrows) {
  // A neural forecaster has no weights to write until it is fitted; the
  // closed-form models have no weight checkpoints at all.
  auto net = make_forecaster("RPTCN", fast_config());
  EXPECT_THROW(net->save(checkpoint_path("unfitted")), CheckError);
  auto arima = make_forecaster("ARIMA", fast_config());
  EXPECT_EQ(arima->save(checkpoint_path("unfitted_arima")),
            CheckpointStatus::kUnsupported);
}

TEST(NnForecasters, CurvesRecorded) {
  const auto ds = make_dataset();
  auto model = make_forecaster("RPTCN", fast_config());
  model->fit(ds);
  EXPECT_FALSE(model->curves().train_loss.empty());
  EXPECT_EQ(model->curves().train_loss.size(),
            model->curves().valid_loss.size());
}

TEST(NnForecasters, DeterministicGivenSeed) {
  const auto ds = make_dataset();
  const auto run = [&ds] {
    auto model = make_forecaster("RPTCN", fast_config());
    model->fit(ds);
    return evaluate_accuracy(model->predict(ds.test.inputs), ds.test.targets);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.mse, b.mse);
  EXPECT_DOUBLE_EQ(a.mae, b.mae);
}

TEST(GbtForecasterTest, MultiHorizonDirectStrategy) {
  auto ds = make_dataset();
  // Rebuild with horizon 3.
  data::TimeSeriesFrame frame;
  frame.add("cpu", ds.target_series);
  data::WindowOptions wopt;
  wopt.window = 12;
  wopt.horizon = 3;
  const auto all = data::make_windows(frame, "cpu", wopt);
  auto split = data::chrono_split(all);
  ForecastDataset ds3;
  ds3.train = std::move(split.train);
  ds3.valid = std::move(split.valid);
  ds3.test = std::move(split.test);
  ds3.window = 12;
  ds3.horizon = 3;
  ds3.target_series = ds.target_series;
  ds3.train_len = ds3.train.samples() + 12;

  GbtForecaster model(fast_config().gbt);
  model.fit(ds3);
  const Tensor preds = model.predict(ds3.test.inputs);
  EXPECT_EQ(preds.shape(), (std::vector<std::size_t>{ds3.test.samples(), 3u}));
}

TEST(ArimaForecasterTest, UsesWindowHistoryForForecast) {
  const auto ds = make_dataset();
  ArimaForecaster model;
  model.fit(ds);
  const Tensor preds = model.predict(ds.test.inputs);
  EXPECT_EQ(preds.shape(), ds.test.targets.shape());
  // ARIMA on a mean-reverting AR(1) should track closely.
  const auto acc = evaluate_accuracy(preds, ds.test.targets);
  EXPECT_LT(acc.mse, variance_of_targets(ds.test.targets) * 0.5);
}

TEST(ArimaForecasterTest, RequiresTargetSeries) {
  auto ds = make_dataset();
  ds.target_series.clear();
  ArimaForecaster model;
  EXPECT_THROW(model.fit(ds), CheckError);
}

TEST(ArimaForecasterTest, AutoOrderVariantFits) {
  const auto ds = make_dataset(400, 99);
  ArimaForecaster model({}, /*auto_order=*/true);
  model.fit(ds);
  const Tensor preds = model.predict(ds.test.inputs);
  for (float v : preds.data()) ASSERT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace rptcn::models
