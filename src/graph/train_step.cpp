// The planned training step (see train.h): capture by probe, compile
// through graph/compile.h, verify bit-for-bit, then replay each later batch
// of the same shape and finish it through Adam's gradient slab.
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "autograd/trace.h"
#include "common/rng.h"
#include "graph/compile.h"
#include "graph/train.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "tensor/buffer_pool.h"

namespace rptcn::graph {
namespace {

struct TrainMetrics {
  obs::Counter& captures = obs::metrics().counter("graph/train_captures");
  obs::Counter& replays = obs::metrics().counter("graph/train_replays");
  obs::Counter& fallbacks = obs::metrics().counter("graph/train_fallbacks");
  obs::Gauge& arena_bytes = obs::metrics().gauge("graph/train_arena_bytes");
};

TrainMetrics& train_metrics() {
  static TrainMetrics* m = new TrainMetrics();
  return *m;
}

/// The PlannedStep implementation behind make_planned_step. One instance per
/// fit() call; shape-keyed program cache. A program reads every parameter
/// through its node and re-packs weight panels at each replay, so weights
/// written outside the plan are picked up without recompiling. Replay is
/// single-threaded (the trainer's batch loop): the pack registry and any
/// captured dropout RNG streams are mutated in place.
class TrainStep final : public opt::PlannedStep {
 public:
  TrainStep(opt::ForwardFn forward, opt::Adam& adam,
            const opt::TrainOptions& options)
      : forward_(std::move(forward)),
        adam_(adam),
        params_(adam.params()),
        loss_(options.loss),
        tau_(options.pinball_tau),
        clip_norm_(options.clip_norm),
        slab_(adam.slab_floats(), 0.0f) {}

  bool step(Tensor x, const Tensor& y, float* loss_out) override {
    if (!planning_enabled()) return false;
    if (x.rank() != 3) return false;
    const std::array<std::size_t, 3> key{x.dim(0), x.dim(1), x.dim(2)};
    auto it = programs_.find(key);
    if (it != programs_.end()) {
      if (it->second == nullptr) {  // shape pinned to the eager path
        if (obs::enabled()) train_metrics().fallbacks.add(1);
        return false;
      }
      run_program(*it->second, x, y, loss_out);
      finish_from_slab();
      if (obs::enabled()) train_metrics().replays.add(1);
      return true;
    }
    return capture_step(key, x, y, loss_out);
  }

  void on_epoch_end() override {
    // The eager tape churned activation/gradient buffers through the pool;
    // planned replays only draw the arena. Return the excess to the OS.
    pool::trim(pool::kMaxCachedBytes / 2);
  }

 private:
  void run_program(const Executable& prog, const Tensor& x, const Tensor& y,
                   float* loss_out) {
    pool::Scratch arena(prog.arena_floats());
    float loss = 0.0f;
    ExecContext ctx;
    ctx.input = x.raw();
    ctx.output = &loss;
    ctx.arena = arena.data();
    ctx.target = y.raw();
    ctx.grads = slab_.data();
    for (const TensorOp& s : prog.steps()) s.op(ctx);
    *loss_out = loss;
    if (obs::enabled())
      train_metrics().arena_bytes.set_max(
          static_cast<double>(prog.arena_floats() * sizeof(float)));
  }

  void finish_from_slab() {
    if (clip_norm_ > 0.0f)
      opt::clip_grad_slab(slab_.data(), params_, adam_.offsets(), clip_norm_);
    adam_.step_planned(slab_.data());
  }

  /// Cache miss: run the eager step under a trace (the probe IS this batch's
  /// training step), compile, and accept the program only if replaying it on
  /// the very same batch reproduces the loss and every parameter gradient
  /// bit-for-bit.
  bool capture_step(const std::array<std::size_t, 3>& key, const Tensor& x,
                    const Tensor& y, float* loss_out) {
    ag::trace::TapeTrace trace;
    adam_.zero_grad();
    Variable xv(x);
    Variable loss;
    {
      ag::trace::Recording rec(&trace);
      const Variable pred = forward_(xv);
      loss = opt::apply_loss(pred, y, loss_, tau_);
      loss.backward();
    }
    const float eager_loss = loss.value().item();

    std::shared_ptr<const Executable> prog = compile_step_trace(
        trace, xv.node(), loss.node(), params_, adam_.offsets(), y.size());
    bool ok = prog != nullptr;
    if (ok) {
      // Rewind each distinct dropout stream to its pre-probe state; the
      // replay then re-draws the identical mask sequence and leaves the
      // streams exactly where the probe left them.
      std::vector<std::pair<Rng*, Rng>> streams;
      for (const ag::trace::OpRecord& r : trace.ops) {
        Rng* rng = r.attrs.rng;
        if (rng == nullptr) continue;
        bool seen = false;
        for (const auto& s : streams)
          if (s.first == rng) {
            seen = true;
            break;
          }
        if (!seen) streams.emplace_back(rng, r.rng_before);
      }
      for (const auto& s : streams) *s.first = s.second;
      float replay_loss = 0.0f;
      run_program(*prog, x, y, &replay_loss);
      ok = std::memcmp(&replay_loss, &eager_loss, sizeof(float)) == 0;
      for (std::size_t i = 0; ok && i < params_.size(); ++i) {
        const Tensor& grad = params_[i].grad();
        ok = grad.size() == params_[i].size() &&
             std::memcmp(grad.raw(), slab_.data() + adam_.offsets()[i],
                         grad.size() * sizeof(float)) == 0;
      }
    }
    if (ok) {
      programs_[key] = prog;
      // The slab just proved bit-identical to the node gradients; finish
      // through it so capture batches take the same code path as replays.
      finish_from_slab();
      adam_.zero_grad();  // release the probe's node gradient tensors
      if (obs::enabled()) train_metrics().captures.add(1);
    } else {
      programs_[key] = nullptr;  // never try this shape again
      if (clip_norm_ > 0.0f) opt::clip_grad_norm(params_, clip_norm_);
      adam_.step();
      if (obs::enabled()) train_metrics().fallbacks.add(1);
    }
    *loss_out = eager_loss;
    return true;
  }

  opt::ForwardFn forward_;
  opt::Adam& adam_;
  std::vector<Variable> params_;
  opt::Loss loss_;
  float tau_;
  float clip_norm_;
  std::map<std::array<std::size_t, 3>, std::shared_ptr<const Executable>>
      programs_;
  std::vector<float> slab_;
};

}  // namespace

std::shared_ptr<opt::PlannedStep> make_planned_step(
    nn::Module& model, const opt::ForwardFn& forward, opt::Adam& optimizer,
    const opt::TrainOptions& options) {
  if (!planning_enabled()) return nullptr;
  // The slab layout and the clip-norm reduction both follow the optimizer's
  // parameter order; require it to be exactly the model's so an eager clip
  // over model.parameters() and a slab clip agree bit-for-bit.
  const std::vector<Variable> model_params = model.parameters();
  const std::vector<Variable>& opt_params = optimizer.params();
  if (model_params.size() != opt_params.size()) return nullptr;
  for (std::size_t i = 0; i < model_params.size(); ++i)
    if (model_params[i].node() != opt_params[i].node()) return nullptr;
  return std::make_shared<TrainStep>(forward, optimizer, options);
}

}  // namespace rptcn::graph
