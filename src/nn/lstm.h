// LSTM baseline (Hochreiter & Schmidhuber), unrolled through the autograd
// tape. Used both standalone (the paper's LSTM baseline) and inside the
// CNN-LSTM baseline.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace rptcn::nn {

/// Single-layer LSTM over [N, F, T] sequences, returning the final hidden
/// state [N, H]. All four gates share one packed weight [4H, F+H] (row
/// blocks i, f, g, o; columns [0,F) input, [F,F+H) recurrent), so each
/// timestep costs a single fused pre-activation GEMM instead of eight small
/// ones. Forget-gate bias rows are initialised to 1 (standard trick for
/// gradient flow); the per-gate init draws match the historical unfused
/// layout exactly.
class Lstm : public Module {
 public:
  Lstm(std::size_t input_features, std::size_t hidden, Rng& rng);

  /// x: [N, F, T] -> final hidden state [N, H].
  Variable forward(const Variable& x) const;

  std::size_t hidden_size() const { return hidden_; }

  // Read-only parameter access, for inspection.
  const Variable& gate_weights() const { return w_; }
  const Variable& gate_biases() const { return b_; }

 private:
  std::size_t hidden_;
  Variable w_;  ///< [4H, F+H] packed gate weights (rows: i, f, g, o)
  Variable b_;  ///< [4H] packed gate biases
};

struct LstmNetOptions {
  std::size_t input_features = 1;
  std::size_t hidden = 32;
  std::size_t horizon = 1;
  float dropout = 0.1f;
  std::uint64_t seed = 42;
};

/// LSTM regressor: LSTM -> dropout -> linear head [N, horizon].
class LstmNet final : public ForecastNet {
 public:
  explicit LstmNet(const LstmNetOptions& options);

  /// x: [N, F, T] -> [N, horizon].
  Variable forward(const Variable& x) override;
  std::unique_ptr<ForecastNet> rebuild() const override {
    return std::make_unique<LstmNet>(options_);
  }
  std::size_t input_features() const override {
    return options_.input_features;
  }
  std::size_t horizon() const override { return options_.horizon; }

  const LstmNetOptions& options() const { return options_; }
  const Lstm& lstm() const { return lstm_; }
  const Linear& head() const { return head_; }

 private:
  LstmNetOptions options_;
  Rng rng_;
  Lstm lstm_;
  Linear head_;
};

struct BiLstmNetOptions {
  std::size_t input_features = 1;
  std::size_t hidden = 24;
  std::size_t horizon = 1;
  float dropout = 0.1f;
  std::uint64_t seed = 42;
};

/// Bidirectional LSTM regressor (the related-work baseline of Gupta &
/// Dinesh 2017): forward and backward passes over the fully observed input
/// window, concatenated final hidden states, linear head. Valid for
/// forecasting because the window lies entirely in the past.
class BiLstmNet final : public ForecastNet {
 public:
  explicit BiLstmNet(const BiLstmNetOptions& options);

  /// x: [N, F, T] -> [N, horizon].
  Variable forward(const Variable& x) override;
  std::unique_ptr<ForecastNet> rebuild() const override {
    return std::make_unique<BiLstmNet>(options_);
  }
  std::size_t input_features() const override {
    return options_.input_features;
  }
  std::size_t horizon() const override { return options_.horizon; }

  const BiLstmNetOptions& options() const { return options_; }
  const Lstm& forward_lstm() const { return forward_lstm_; }
  const Lstm& backward_lstm() const { return backward_lstm_; }
  const Linear& head() const { return head_; }

 private:
  BiLstmNetOptions options_;
  Rng rng_;
  Lstm forward_lstm_;
  Lstm backward_lstm_;
  Linear head_;
};

}  // namespace rptcn::nn
