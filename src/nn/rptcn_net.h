// RPTCN network — the paper's primary contribution (Fig. 5).
//
// Architecture: dilated-causal TCN backbone -> per-timestep fully connected
// layer (linear recombination of the convolutional features, eq. 6) ->
// temporal attention (eqs. 7-8) -> linear forecast head emitting the next
// `horizon` values of the predicted resource.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/tcn.h"

namespace rptcn::nn {

struct RptcnOptions {
  std::size_t input_features = 1;  ///< indicator channels after expansion
  std::size_t horizon = 1;         ///< forecast steps (cpu_{m+1..m+k})
  TcnOptions tcn;                  ///< backbone configuration
  std::size_t fc_dim = 32;         ///< width of the per-timestep FC layer
  bool use_attention = true;       ///< ablation switch
  bool use_fc = true;              ///< ablation switch
  std::uint64_t seed = 42;         ///< init + dropout stream
};

class RptcnNet final : public ForecastNet {
 public:
  explicit RptcnNet(const RptcnOptions& options);

  /// x: [N, F, T] -> forecast [N, horizon].
  Variable forward(const Variable& x) override;
  std::unique_ptr<ForecastNet> rebuild() const override {
    return std::make_unique<RptcnNet>(options_);
  }
  std::size_t input_features() const override {
    return options_.input_features;
  }
  std::size_t horizon() const override { return options_.horizon; }

  /// Attention weights [N, 1, T] of the most recent forward pass
  /// (empty optional when attention is disabled).
  std::optional<Tensor> last_attention_weights() const;

  const RptcnOptions& options() const { return options_; }

  // Read-only layer access, for parameter inspection.
  const Tcn& tcn() const { return tcn_; }
  const Conv1d* fc() const { return fc_.get(); }
  const TemporalAttention* attention() const { return attention_.get(); }
  const Linear& head() const { return *head_; }

 private:
  RptcnOptions options_;
  Rng rng_;
  Tcn tcn_;
  std::unique_ptr<Conv1d> fc_;  ///< 1x1 conv = per-timestep FC
  std::unique_ptr<TemporalAttention> attention_;
  std::unique_ptr<Linear> head_;
  std::optional<Tensor> last_attention_;
};

}  // namespace rptcn::nn
