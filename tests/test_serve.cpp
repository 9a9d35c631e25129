// Serving engine tests: inference/training parity (batched planned and
// eager serving bit-identical to the unbatched autograd forward for every
// registry forecaster), InferenceSession contract checks, and
// BatchingEngine behaviour (coalescing, unheld waves, future delivery,
// failure fan-out, drain-on-shutdown, concurrent submitters, interleaved
// sessions).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "graph/plan.h"
#include "latched_forecaster.h"
#include "models/net_forecaster.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "tensor/buffer_pool.h"

namespace rptcn::serve {
namespace {

/// Same learnable multivariate series as the model tests: smooth AR target
/// plus one noisy-copy auxiliary channel, window 12, horizon 1.
models::ForecastDataset make_dataset(std::size_t length = 420,
                                     std::uint64_t seed = 17) {
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
  wopt.horizon = 1;
  const auto all = data::make_windows(frame, "cpu", wopt);
  auto split = data::chrono_split(all);

  models::ForecastDataset ds;
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

/// Tiny configuration: parity needs fitted weights, not accuracy.
models::ModelConfig tiny_config() {
  models::ModelConfig cfg;
  cfg.nn.max_epochs = 2;
  cfg.nn.patience = 2;
  cfg.nn.seed = 9;
  cfg.rptcn.tcn.channels = {6, 6};
  cfg.rptcn.fc_dim = 6;
  cfg.lstm.hidden = 8;
  cfg.cnn_lstm.conv_channels = 4;
  cfg.cnn_lstm.hidden = 8;
  cfg.gbt.n_rounds = 12;
  return cfg;
}

/// The bit-parity reference: the unbatched (N=1) autograd forward in eval
/// mode. Forecaster::predict is NOT usable here — NetForecaster::predict
/// batches windows at the training batch size, which is exactly the effect
/// this suite must distinguish from.
Tensor reference_forward(models::Forecaster& model, const Tensor& x1) {
  NoGradScope no_grad;
  if (auto* neural = dynamic_cast<models::NetForecaster*>(&model)) {
    neural->net()->set_training(false);
    return neural->net()->forward(Variable(x1)).value();
  }
  // ARIMA / XGBoost predict per sample, so predict() IS the N=1 path.
  return model.predict(x1);
}

void expect_bit_identical(const models::ForecastDataset& ds,
                          models::Forecaster& model,
                          const InferenceSession& session) {
  const std::size_t n = std::min<std::size_t>(6, ds.test.samples());
  const std::size_t f = ds.test.inputs.dim(1);
  const std::size_t t = ds.test.inputs.dim(2);
  Tensor batch({n, f, t});
  std::copy_n(ds.test.inputs.raw(), n * f * t, batch.raw());

  const Tensor out = session.run(batch);
  ASSERT_EQ(out.rank(), 2u);
  ASSERT_EQ(out.dim(0), n);

  for (std::size_t i = 0; i < n; ++i) {
    Tensor one({1, f, t});
    std::copy_n(batch.raw() + i * f * t, f * t, one.raw());
    const Tensor ref = reference_forward(model, one);
    ASSERT_EQ(ref.rank(), 2u);
    ASSERT_EQ(ref.dim(1), out.dim(1));
    for (std::size_t h = 0; h < out.dim(1); ++h)
      EXPECT_EQ(out.at(i, h), ref.at(0, h))
          << model.name() << " window " << i << " step " << h
          << ": batched serving drifted from the autograd forward";
  }
}

class ServeParity : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeParity, BatchedRunBitMatchesUnbatchedForward) {
  const auto ds = make_dataset();
  auto model = models::make_forecaster(GetParam(), tiny_config());
  model->fit(ds);
  struct PlanningAndObsOn {
    bool planning = graph::planning_enabled();
    bool obs_on = obs::enabled();
    PlanningAndObsOn() {
      graph::set_planning_enabled(true);
      obs::set_enabled(true);
    }
    ~PlanningAndObsOn() {
      graph::set_planning_enabled(planning);
      obs::set_enabled(obs_on);
    }
  } guard;
  auto& replays = obs::metrics().counter("graph/replays");
  const auto r0 = replays.value();
  InferenceSession session(*model);
  expect_bit_identical(ds, *model, session);
  // The eager fallback is bit-identical too, so parity alone would not
  // notice a neural net whose compile was declined: its run must replay a
  // compiled program. ARIMA and XGBoost serve through their delegate.
  const bool neural = GetParam() != "ARIMA" && GetParam() != "XGBoost";
  if (neural)
    EXPECT_GT(replays.value() - r0, 0u) << "served eagerly, not planned";
  else
    EXPECT_EQ(replays.value() - r0, 0u);
}

TEST_P(ServeParity, HoldsWithBufferPoolDisabled) {
  struct PoolOff {
    PoolOff() { pool::set_enabled(false); }
    ~PoolOff() { pool::set_enabled(true); }
  } guard;
  const auto ds = make_dataset();
  auto model = models::make_forecaster(GetParam(), tiny_config());
  model->fit(ds);
  InferenceSession session(*model);
  expect_bit_identical(ds, *model, session);
}

TEST_P(ServeParity, HoldsWithPlanningDisabled) {
  // RPTCN_DISABLE_PLAN=1 serves every request through the session's eager
  // copy of the net (or the delegate); those rows must match too.
  const auto ds = make_dataset();
  auto model = models::make_forecaster(GetParam(), tiny_config());
  model->fit(ds);
  struct PlanningOff {
    bool was = graph::planning_enabled();
    PlanningOff() { graph::set_planning_enabled(false); }
    ~PlanningOff() { graph::set_planning_enabled(was); }
  } guard;
  InferenceSession session(*model);
  expect_bit_identical(ds, *model, session);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ServeParity,
                         ::testing::Values("ARIMA", "LSTM", "CNN-LSTM",
                                           "XGBoost", "RPTCN", "TCN",
                                           "BiLSTM"));

TEST(ServeSession, DelegatedSessionCoOwnsItsForecaster) {
  const auto ds = make_dataset();
  std::shared_ptr<models::Forecaster> model =
      models::make_forecaster("ARIMA", tiny_config());
  model->fit(ds);

  Tensor one({1, ds.test.inputs.dim(1), ds.test.inputs.dim(2)});
  std::copy_n(ds.test.inputs.raw(), one.size(), one.raw());

  auto session = std::make_shared<InferenceSession>(model);
  const Tensor before = session->run(one);
  // Dropping the caller's reference must not free the delegate: the session
  // shares ownership, so teardown order can never dangle it.
  model.reset();
  const Tensor after = session->run(one);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < before.size(); ++h)
    EXPECT_EQ(after.raw()[h], before.raw()[h]);
}

TEST(ServeSession, RequiresFittedNet) {
  auto model = models::make_forecaster("RPTCN", tiny_config());
  EXPECT_THROW(InferenceSession{*model}, CheckError);
}

TEST(ServeSession, ReportsModelMetadata) {
  const auto ds = make_dataset();
  auto model = models::make_forecaster("RPTCN", tiny_config());
  model->fit(ds);
  InferenceSession session(*model);
  EXPECT_EQ(session.model_name(), "RPTCN");
  EXPECT_EQ(session.horizon(), ds.horizon);
  EXPECT_EQ(session.input_features(), 2u);
}

TEST(ServeSession, ValidatesInputShape) {
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.horizon = 2;
  opt.tcn.channels = {4, 4};
  opt.fc_dim = 4;
  nn::RptcnNet net(opt);
  InferenceSession session(net);
  EXPECT_THROW(session.run(Tensor({3, 8})), CheckError);       // rank 2
  EXPECT_THROW(session.run(Tensor({1, 5, 8})), CheckError);    // wrong F
  const Tensor out = session.run(Tensor({2, 3, 8}));
  EXPECT_EQ(out.dim(0), 2u);
  EXPECT_EQ(out.dim(1), 2u);
}

TEST(ServeSession, ConcurrentRunsAgree) {
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {4, 4};
  opt.fc_dim = 4;
  opt.seed = 3;
  nn::RptcnNet net(opt);

  Rng rng(21);
  Tensor input({4, 2, 16});
  for (float& v : input.data()) v = static_cast<float>(rng.normal(0.0, 1.0));

  // Planned replays, then the eager fallback (the session's private net,
  // serialised by its mutex) — TSAN covers both.
  const bool planning_was = graph::planning_enabled();
  for (const bool planned : {true, false}) {
    graph::set_planning_enabled(planned);
    InferenceSession session(net);
    const Tensor expected = session.run(input);

    std::vector<std::thread> threads;
    std::vector<Tensor> results(8);
    for (std::size_t i = 0; i < results.size(); ++i)
      threads.emplace_back(
          [&, i] { results[i] = session.run(input); });
    for (auto& th : threads) th.join();
    for (const Tensor& r : results)
      for (std::size_t j = 0; j < expected.size(); ++j)
        ASSERT_EQ(r.data()[j], expected.data()[j]) << "planned=" << planned;
  }
  graph::set_planning_enabled(planning_was);
}

TEST(ServeSession, ServesItsOwnCopyAfterTheForecasterChanges) {
  // The session copies the fitted net: overwriting the forecaster's
  // parameters or refitting it must not change a single served bit.
  const auto ds = make_dataset();
  auto model = models::make_forecaster("RPTCN", tiny_config());
  model->fit(ds);
  InferenceSession session(*model);

  const std::size_t n = 3;
  const std::size_t f = ds.test.inputs.dim(1);
  const std::size_t t = ds.test.inputs.dim(2);
  Tensor batch({n, f, t});
  std::copy_n(ds.test.inputs.raw(), n * f * t, batch.raw());
  const Tensor before = session.run(batch);

  auto* rptcn = dynamic_cast<models::NetForecaster*>(model.get());
  ASSERT_NE(rptcn, nullptr);
  for (Variable& p : rptcn->net()->parameters()) {
    Tensor& v = p.mutable_value();
    std::fill_n(v.raw(), v.size(), 0.25f);
  }
  const Tensor overwritten = session.run(batch);
  model->fit(make_dataset(420, 23));
  const Tensor refit = session.run(batch);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(overwritten.raw()[i], before.raw()[i]) << "after overwrite";
    ASSERT_EQ(refit.raw()[i], before.raw()[i]) << "after refit";
  }
}

TEST(ServeSession, RowsMatchTheN1ForwardWhereBatchingCrossesTheConvCutoff) {
  // 8 channels, k=3, window 24: one window's 8->8 convs take the small-shape
  // GEMM, a batch of eight the blocked one. Each row must still equal its
  // window served alone, planned and eager alike.
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.horizon = 4;
  opt.tcn.channels = {8, 8, 8};
  opt.tcn.kernel_size = 3;
  opt.fc_dim = 8;
  opt.seed = 19;
  nn::RptcnNet net(opt);
  net.set_training(false);
  const std::size_t n = 8;

  Rng rng(29);
  Tensor batch({n, 2, 24});
  for (float& v : batch.data()) v = static_cast<float>(rng.normal(0.0, 1.0));

  const bool planning_was = graph::planning_enabled();
  for (const bool planned : {true, false}) {
    graph::set_planning_enabled(planned);
    InferenceSession session(net);
    const Tensor out = session.run(batch);
    for (std::size_t i = 0; i < n; ++i) {
      Tensor one({1, 2, 24});
      std::copy_n(batch.raw() + i * one.size(), one.size(), one.raw());
      NoGradScope no_grad;
      const Tensor ref = net.forward(Variable(one)).value();
      for (std::size_t h = 0; h < out.dim(1); ++h)
        EXPECT_EQ(out.at(i, h), ref.at(0, h))
            << "planned=" << planned << " row " << i << " step " << h;
    }
  }
  graph::set_planning_enabled(planning_was);
}

TEST(ServeSession, CompilesEachShapeOnceAndReplaysIt) {
  // The serving counters the end-to-end benchmark reads: one capture per
  // new [N, F, T], cache hits and replays after it, and nothing compiled or
  // replayed while planning is disabled.
  const bool obs_was = obs::enabled();
  const bool planning_was = graph::planning_enabled();
  obs::set_enabled(true);
  graph::set_planning_enabled(true);
  auto& captures = obs::metrics().counter("graph/captures");
  auto& hits = obs::metrics().counter("graph/plan_cache_hits");
  auto& misses = obs::metrics().counter("graph/plan_cache_misses");
  auto& replays = obs::metrics().counter("graph/replays");

  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {4, 4};
  opt.fc_dim = 4;
  nn::RptcnNet net(opt);
  InferenceSession session(net);
  const auto c0 = captures.value(), h0 = hits.value(), m0 = misses.value(),
             r0 = replays.value();
  for (const std::size_t n : {1, 1, 3, 1, 3})
    (void)session.run(Tensor({n, 2, 16}));
  EXPECT_EQ(captures.value() - c0, 2u);
  EXPECT_EQ(misses.value() - m0, 2u);
  EXPECT_EQ(hits.value() - h0, 3u);
  EXPECT_EQ(replays.value() - r0, 5u);

  graph::set_planning_enabled(false);
  (void)session.run(Tensor({2, 2, 16}));
  EXPECT_EQ(captures.value() - c0, 2u);
  EXPECT_EQ(replays.value() - r0, 5u);
  graph::set_planning_enabled(planning_was);
  obs::set_enabled(obs_was);
}

TEST(ServeSession, ConcurrentFirstRequestsOfManyShapesAgree) {
  // Threads race the first requests of many shapes (each compile records
  // the session's private net under its mutex) against replays of shapes
  // already cached. Every result must equal what a second session computes
  // for the same input alone.
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {4, 4};
  opt.fc_dim = 4;
  opt.seed = 7;
  nn::RptcnNet net(opt);
  const InferenceSession shared(net);
  const InferenceSession reference(net);

  Rng rng(33);
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (const std::size_t n : {1, 2, 5})
    for (const std::size_t t : {12, 16}) {
      Tensor x({n, 2, t});
      for (float& v : x.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
      expected.push_back(reference.run(x));
      inputs.push_back(std::move(x));
    }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t th = 0; th < 6; ++th)
    threads.emplace_back([&, th] {
      for (std::size_t j = 0; j < 2 * inputs.size(); ++j) {
        const std::size_t i = (th + j) % inputs.size();
        const Tensor out = shared.run(inputs[i]);
        if (out.size() != expected[i].size() ||
            std::memcmp(out.raw(), expected[i].raw(),
                        out.size() * sizeof(float)) != 0)
          mismatches.fetch_add(1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// BatchingEngine
// ---------------------------------------------------------------------------

nn::RptcnOptions engine_net_options() {
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.horizon = 2;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 13;
  return opt;
}

Tensor random_window(Rng& rng, std::size_t f = 3, std::size_t t = 16) {
  Tensor w({f, t});
  for (float& v : w.data()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return w;
}

/// The engine must deliver exactly the row the session computes for the
/// window alone.
void expect_row_matches(const InferenceSession& session, const Tensor& window,
                        const Tensor& row) {
  Tensor one({1, window.dim(0), window.dim(1)});
  std::copy_n(window.raw(), window.size(), one.raw());
  const Tensor ref = session.run(one);
  ASSERT_EQ(row.rank(), 1u);
  ASSERT_EQ(row.dim(0), ref.dim(1));
  for (std::size_t h = 0; h < row.dim(0); ++h)
    ASSERT_EQ(row.at(h), ref.at(0, h));
}

TEST(ServeEngine, DeliversBitIdenticalRows) {
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine({/*max_batch=*/8, /*max_delay_us=*/2000,
                         /*workers=*/2});

  Rng rng(5);
  std::vector<Tensor> windows;
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < 16; ++i) {
    windows.push_back(random_window(rng));
    futures.push_back(engine.submit(windows.back(), session));
  }
  for (std::size_t i = 0; i < futures.size(); ++i)
    expect_row_matches(*session, windows[i], futures[i].get());
}

TEST(ServeEngine, CoalescesIntoOneBatchAndCountsIt) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);

  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  const std::uint64_t requests_before =
      obs::metrics().counter("serve/requests").value();
  const std::uint64_t batches_before =
      obs::metrics().counter("serve/batches").value();

  Rng rng(6);
  std::vector<Tensor> windows;
  std::vector<std::future<Tensor>> futures;
  {
    // A huge delay and max_batch == request count: the single worker must
    // assemble exactly one full batch (the size trigger fires long before
    // the deadline). Counters are read after the destructor joins the
    // worker, so they are quiescent.
    BatchingEngine engine({/*max_batch=*/4, /*max_delay_us=*/2'000'000,
                           /*workers=*/1});
    for (std::size_t i = 0; i < 4; ++i) {
      windows.push_back(random_window(rng));
      futures.push_back(engine.submit(windows.back(), session));
    }
    for (std::size_t i = 0; i < futures.size(); ++i)
      expect_row_matches(*session, windows[i], futures[i].get());
  }

  EXPECT_EQ(obs::metrics().counter("serve/requests").value() - requests_before,
            4u);
  EXPECT_EQ(obs::metrics().counter("serve/batches").value() - batches_before,
            1u);
  const auto hist =
      obs::metrics().histogram("serve/batch_size").snapshot();
  EXPECT_GE(hist.max, 4.0);
  obs::set_enabled(was_enabled);
}

TEST(ServeEngine, ServesMixedWindowLengths) {
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine({/*max_batch=*/8, /*max_delay_us=*/500,
                         /*workers=*/1});

  Rng rng(8);
  std::vector<Tensor> windows;
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < 10; ++i) {
    windows.push_back(random_window(rng, 3, (i % 2 == 0) ? 16 : 24));
    futures.push_back(engine.submit(windows.back(), session));
  }
  for (std::size_t i = 0; i < futures.size(); ++i)
    expect_row_matches(*session, windows[i], futures[i].get());
}

TEST(ServeEngine, BatchFailureReachesEveryFuture) {
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine({/*max_batch=*/3, /*max_delay_us=*/2'000'000,
                         /*workers=*/1});

  // Wrong feature count passes the rank check at submit() and fails inside
  // the batched forward; the failure must fan out to every request of the
  // batch.
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < 3; ++i)
    futures.push_back(engine.submit(Tensor({5, 16}), session));
  for (auto& fut : futures) EXPECT_THROW(fut.get(), CheckError);

  // The engine survives a failed batch and keeps serving. Three good
  // windows fill the next batch so the size trigger fires immediately.
  Rng rng(9);
  std::vector<Tensor> good;
  std::vector<std::future<Tensor>> ok;
  for (std::size_t i = 0; i < 3; ++i) {
    good.push_back(random_window(rng));
    ok.push_back(engine.submit(good.back(), session));
  }
  for (std::size_t i = 0; i < ok.size(); ++i)
    expect_row_matches(*session, good[i], ok[i].get());
}

TEST(ServeEngine, SubmitValidatesRank) {
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine;
  EXPECT_THROW(engine.submit(Tensor({1, 3, 16}), session), CheckError);
  EXPECT_THROW(engine.submit(Tensor({16}), session), CheckError);
  EXPECT_THROW(engine.submit(Tensor({3, 16}), nullptr), CheckError);
}

TEST(ServeEngine, WaveRunsAtOnceAsOneBatch) {
  // A wave is never held for peers: with a 2 s max_delay_us, three
  // same-session requests are ready well inside it, as one batch, each row
  // its window's N=1 forward. A lone submit() is still held; the size
  // trigger in CoalescesIntoOneBatchAndCountsIt relies on that hold.
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine({/*max_batch=*/8, /*max_delay_us=*/2'000'000,
                         /*workers=*/1});

  Rng rng(13);
  std::vector<Tensor> windows;
  std::vector<WaveRequest> wave;
  for (std::size_t i = 0; i < 3; ++i) {
    windows.push_back(random_window(rng));
    wave.push_back({windows.back(), session});
  }
  // Compile the N=3 program first, so the bound below times the hold, not
  // a compile.
  Tensor three({3, windows[0].dim(0), windows[0].dim(1)});
  session->run(three);
  std::vector<std::future<Tensor>> futures = engine.submit_wave(wave);
  ASSERT_EQ(futures.size(), 3u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(1)),
              std::future_status::ready)
        << "request " << i << " was held for peers";
    expect_row_matches(*session, windows[i], futures[i].get());
  }
  // The worker bumps its counters just after it delivers a batch.
  while (engine.stats().completed < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(engine.stats().batches, 1u);
}

TEST(ServeEngine, WaveValidatesEveryRequestBeforeEnqueuingAny) {
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine({/*max_batch=*/8, /*max_delay_us=*/2'000'000,
                         /*workers=*/1});
  Rng rng(14);
  // The bad request comes last, after two good ones.
  std::vector<WaveRequest> null_session = {{random_window(rng), session},
                                           {random_window(rng), session},
                                           {random_window(rng), nullptr}};
  EXPECT_THROW(engine.submit_wave(null_session), CheckError);
  std::vector<WaveRequest> rank3 = {{random_window(rng), session},
                                    {random_window(rng), session},
                                    {Tensor({1, 3, 16}), session}};
  EXPECT_THROW(engine.submit_wave(rank3), CheckError);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ServeEngine, DestructorDrainsQueuedRequests) {
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);

  Rng rng(10);
  std::vector<Tensor> windows;
  std::vector<std::future<Tensor>> futures;
  {
    // Long delay: most of these are still queued when the engine is
    // destroyed, and shutdown must drain them, not drop them.
    BatchingEngine engine({/*max_batch=*/2, /*max_delay_us=*/2'000'000,
                           /*workers=*/1});
    for (std::size_t i = 0; i < 6; ++i) {
      windows.push_back(random_window(rng));
      futures.push_back(engine.submit(windows.back(), session));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    expect_row_matches(*session, windows[i], futures[i].get());
  }
}

using test_util::LatchedForecaster;

TEST(ServeEngine, TeardownMidBatchDeliversEveryFuture) {
  // Shutdown while a coalesced batch is inside its forward: the destructor
  // waits for that batch, drains the requests queued behind it, and every
  // future completes with its own row.
  auto model = std::make_shared<LatchedForecaster>();
  auto session = std::make_shared<InferenceSession>(
      std::shared_ptr<models::Forecaster>(model));
  auto engine = std::make_unique<BatchingEngine>(
      EngineOptions{/*max_batch=*/4, /*max_delay_us=*/2'000'000,
                    /*workers=*/1});

  Rng rng(12);
  std::vector<Tensor> windows;
  std::vector<std::future<Tensor>> futures;
  const auto submit = [&] {
    windows.push_back(random_window(rng));
    futures.push_back(engine->submit(windows.back(), session));
  };
  for (std::size_t i = 0; i < 4; ++i) submit();  // a full batch fires at once
  model->wait_entered();
  for (std::size_t i = 0; i < 2; ++i) submit();  // queued behind it
  const EngineStats held = engine->stats();
  EXPECT_EQ(held.in_flight, 4u);
  EXPECT_EQ(held.queued, 2u);

  std::thread teardown([&engine] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (auto& fut : futures)
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "a future completed while its batch was held";
  model->release();
  teardown.join();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
    const Tensor row = futures[i].get();
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row.raw()[0], windows[i].at(0, windows[i].dim(1) - 1))
        << "request " << i;
  }
}

TEST(ServeEngine, StatsTrackSubmissionsBatchesAndGeneration) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);

  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine({/*max_batch=*/4, /*max_delay_us=*/500,
                         /*workers=*/1});
  {
    const EngineStats fresh = engine.stats();
    EXPECT_EQ(fresh.submitted, 0u);
    EXPECT_EQ(fresh.completed, 0u);
  }

  Rng rng(11);
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < 8; ++i)
    futures.push_back(engine.submit(random_window(rng), session));
  for (auto& fut : futures) fut.get();
  // The worker bumps its counters just after it delivers a batch.
  while (engine.stats().completed < 8)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  // Everything delivered: the backpressure gauge is back to zero.
  EXPECT_EQ(obs::metrics().gauge("serve/queue_depth").value(), 0.0);
  obs::set_enabled(was_enabled);
}

TEST(ServeEngine, InterleavedSessionsEachGetTheirOwnRows) {
  // One engine, two sessions with different weights, concurrent submitters
  // interleaving requests pinned to either. A batch holds requests of one
  // session only and each session owns its plan cache, so every row must
  // equal its own session's row for that window bit for bit: a batch that
  // mixed sessions, or a plan replayed against the other session's
  // weights, would deliver the other session's row (or neither).
  auto opt_b = engine_net_options();
  opt_b.seed = 14;  // different weights than engine_net_options()
  nn::RptcnNet net_a(engine_net_options());
  nn::RptcnNet net_b(opt_b);
  auto sess_a = std::make_shared<InferenceSession>(net_a);
  auto sess_b = std::make_shared<InferenceSession>(net_b);

  constexpr std::size_t kWindows = 4;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 60;
  Rng rng(77);
  std::vector<Tensor> windows;
  std::vector<Tensor> exp_a;  // [1, horizon] per window, also seeds plans
  std::vector<Tensor> exp_b;
  for (std::size_t i = 0; i < kWindows; ++i) {
    windows.push_back(random_window(rng));
    Tensor one({1, windows[i].dim(0), windows[i].dim(1)});
    std::copy_n(windows[i].raw(), windows[i].size(), one.raw());
    exp_a.push_back(sess_a->run(one));
    exp_b.push_back(sess_b->run(one));
    // The two sessions must be distinguishable for the test to mean
    // anything.
    ASSERT_NE(std::memcmp(exp_a[i].raw(), exp_b[i].raw(),
                          exp_a[i].size() * sizeof(float)),
              0)
        << "window " << i;
  }

  // Request i of client c: each window goes to both sessions back to back.
  const auto window_of = [&](std::size_t c, std::size_t i) {
    return (c + i / 2) % kWindows;
  };
  const auto uses_b = [](std::size_t i) { return i % 2 == 1; };

  BatchingEngine engine({/*max_batch=*/8, /*max_delay_us=*/200,
                         /*workers=*/2});
  std::vector<std::vector<std::future<Tensor>>> futures(kThreads);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kThreads; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        futures[c].push_back(engine.submit(windows[window_of(c, i)],
                                           uses_b(i) ? sess_b : sess_a));
    });
  for (auto& th : clients) th.join();

  for (std::size_t c = 0; c < kThreads; ++c)
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::size_t w = window_of(c, i);
      const bool use_b = uses_b(i);
      const Tensor row = futures[c][i].get();
      const Tensor& expected = use_b ? exp_b[w] : exp_a[w];
      ASSERT_EQ(row.size(), expected.size());
      EXPECT_EQ(std::memcmp(row.raw(), expected.raw(),
                            row.size() * sizeof(float)),
                0)
          << "client " << c << " request " << i << " (session "
          << (use_b ? "b" : "a") << ", window " << w
          << ") did not get its own session's row";
    }
  EXPECT_EQ(engine.stats().submitted, kThreads * kPerThread);
}

TEST(ServeEngine, CoalescesEachSessionAcrossAnInterleavedQueue) {
  // One shard's queue interleaves every cohort hashed to it. A worker takes
  // every queued request of the head's session into its batch, not only
  // the run at the head: a, b, a, b, a, b is two forwards, not six.
  auto opt_b = engine_net_options();
  opt_b.seed = 14;  // different weights than engine_net_options()
  nn::RptcnNet net_a(engine_net_options());
  nn::RptcnNet net_b(opt_b);
  auto sess_a = std::make_shared<InferenceSession>(net_a);
  auto sess_b = std::make_shared<InferenceSession>(net_b);
  const auto session_of = [&](std::size_t i) {
    return i % 2 == 0 ? sess_a : sess_b;
  };

  // max_batch == request count: the size trigger fires once all six are
  // queued; the three b requests left behind then wait out their head's
  // 2 s deadline as one batch.
  BatchingEngine engine({/*max_batch=*/6, /*max_delay_us=*/2'000'000,
                         /*workers=*/1});
  Rng rng(21);
  std::vector<Tensor> windows;
  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    windows.push_back(random_window(rng));
    futures.push_back(engine.submit(windows.back(), session_of(i)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i)
    expect_row_matches(*session_of(i), windows[i], futures[i].get());
  // The worker bumps its counters just after it delivers a batch.
  while (engine.stats().completed < 6)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(engine.stats().batches, 2u);
}

TEST(ServeEngine, ConcurrentSubmittersAllGetTheirOwnRow) {
  nn::RptcnNet net(engine_net_options());
  auto session = std::make_shared<InferenceSession>(net);
  BatchingEngine engine({/*max_batch=*/16, /*max_delay_us=*/200,
                         /*workers=*/2});

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 8;
  std::vector<std::thread> clients;
  std::vector<std::vector<Tensor>> windows(kThreads);
  std::vector<std::vector<std::future<Tensor>>> futures(kThreads);
  for (std::size_t c = 0; c < kThreads; ++c)
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        windows[c].push_back(random_window(rng));
        futures[c].push_back(engine.submit(windows[c].back(), session));
      }
    });
  for (auto& th : clients) th.join();
  for (std::size_t c = 0; c < kThreads; ++c)
    for (std::size_t i = 0; i < kPerThread; ++i)
      expect_row_matches(*session, windows[c][i], futures[c][i].get());
}

}  // namespace
}  // namespace rptcn::serve
