#include "nn/tcn.h"

#include "autograd/ops.h"

namespace rptcn::nn {

namespace {
Conv1dOptions block_conv_options(std::size_t kernel_size, std::size_t dilation) {
  Conv1dOptions o;
  o.kernel_size = kernel_size;
  o.dilation = dilation;
  o.causal = true;
  o.bias = true;
  o.weight_norm = true;
  return o;
}

Conv1dOptions shortcut_options() {
  Conv1dOptions o;
  o.kernel_size = 1;
  o.dilation = 1;
  o.causal = true;  // k=1: no padding either way
  o.bias = true;
  o.weight_norm = false;
  return o;
}
}  // namespace

TemporalBlock::TemporalBlock(std::size_t in_channels, std::size_t out_channels,
                             std::size_t kernel_size, std::size_t dilation,
                             float dropout, Rng& rng)
    : conv1_(in_channels, out_channels,
             block_conv_options(kernel_size, dilation), rng),
      conv2_(out_channels, out_channels,
             block_conv_options(kernel_size, dilation), rng),
      dropout_(dropout) {
  register_module("conv1", conv1_);
  register_module("conv2", conv2_);
  if (in_channels != out_channels) {
    shortcut_ = std::make_unique<Conv1d>(in_channels, out_channels,
                                         shortcut_options(), rng);
    register_module("shortcut", *shortcut_);
  }
}

Variable TemporalBlock::forward(const Variable& x, Rng& rng) const {
  Variable h = ag::relu(conv1_.forward(x));
  h = ag::spatial_dropout(h, dropout_, rng, training());
  h = ag::relu(conv2_.forward(h));
  h = ag::spatial_dropout(h, dropout_, rng, training());
  const Variable res = shortcut_ ? shortcut_->forward(x) : x;
  return ag::relu(ag::add(res, h));  // eq. (5)
}

Tcn::Tcn(std::size_t input_channels, const TcnOptions& options, Rng& rng)
    : options_(options) {
  RPTCN_CHECK(!options.channels.empty(), "TCN needs at least one block");
  std::size_t in_ch = input_channels;
  std::size_t dilation = 1;
  for (std::size_t i = 0; i < options.channels.size(); ++i) {
    blocks_.push_back(std::make_unique<TemporalBlock>(
        in_ch, options.channels[i], options.kernel_size, dilation,
        options.dropout, rng));
    register_module("block" + std::to_string(i), *blocks_.back());
    in_ch = options.channels[i];
    dilation *= 2;  // block i dilates by 2^i (eq. 3)
  }
}

Variable Tcn::forward(const Variable& x, Rng& rng) const {
  Variable h = x;
  for (const auto& block : blocks_) h = block->forward(h, rng);
  return h;
}

std::size_t Tcn::output_channels() const { return options_.channels.back(); }

std::size_t Tcn::receptive_field() const {
  std::size_t field = 1;
  std::size_t dilation = 1;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    field += 2 * (options_.kernel_size - 1) * dilation;  // two convs per block
    dilation *= 2;
  }
  return field;
}

}  // namespace rptcn::nn
