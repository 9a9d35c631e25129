// A delegated (non-net) test forecaster whose predict() blocks until
// release(): served through an InferenceSession, it holds a batch inside a
// BatchingEngine worker for as long as a test needs, so whatever the test
// queues behind it stays in flight until the test lets it go.
#pragma once

#include <atomic>
#include <future>
#include <string>

#include "models/forecaster.h"
#include "tensor/tensor.h"

namespace rptcn::test_util {

/// Row i forecasts the last value of window i's first feature.
class LatchedForecaster final : public models::Forecaster {
 public:
  std::string name() const override { return "latched"; }
  void fit(const models::ForecastDataset&) override {}
  Tensor predict(const Tensor& inputs) override {
    if (!entered_flag_.exchange(true)) entered_.set_value();
    released_.wait();
    const std::size_t t = inputs.dim(2);
    Tensor out({inputs.dim(0), 1});
    for (std::size_t i = 0; i < inputs.dim(0); ++i)
      out.at(i, 0) = inputs.at(i, 0, t - 1);
    return out;
  }
  /// Blocks until the first predict() call has started.
  void wait_entered() { entered_future_.wait(); }
  /// Lets every blocked and later predict() return. Idempotent.
  void release() {
    if (!released_flag_.exchange(true)) release_.set_value();
  }

 private:
  std::atomic<bool> entered_flag_{false};
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::atomic<bool> released_flag_{false};
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

}  // namespace rptcn::test_util
