// CNN-LSTM baseline (Ouhame et al. 2021, as cited by the paper): a causal
// convolutional feature extractor feeding an LSTM, with a linear head.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "nn/conv1d.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/module.h"

namespace rptcn::nn {

struct CnnLstmOptions {
  std::size_t input_features = 1;
  std::size_t conv_channels = 16;
  std::size_t kernel_size = 3;
  std::size_t hidden = 32;
  std::size_t horizon = 1;
  float dropout = 0.1f;
  std::uint64_t seed = 42;
};

class CnnLstm final : public ForecastNet {
 public:
  explicit CnnLstm(const CnnLstmOptions& options);

  /// x: [N, F, T] -> [N, horizon].
  Variable forward(const Variable& x) override;
  std::unique_ptr<ForecastNet> rebuild() const override {
    return std::make_unique<CnnLstm>(options_);
  }
  std::size_t input_features() const override {
    return options_.input_features;
  }
  std::size_t horizon() const override { return options_.horizon; }

  const CnnLstmOptions& options() const { return options_; }
  const Conv1d& conv() const { return conv_; }
  const Lstm& lstm() const { return lstm_; }
  const Linear& head() const { return head_; }

 private:
  CnnLstmOptions options_;
  Rng rng_;
  Conv1d conv_;
  Lstm lstm_;
  Linear head_;
};

}  // namespace rptcn::nn
