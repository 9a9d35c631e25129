// The tape compiler (see train.h for the record/compile/verify/replay
// design shared by the planned training step and planned serving).
//
// Bit-identity rules this file lives by:
//
//  * This translation unit compiles WITHOUT -mfma (only tensor_ops.cpp gets
//    AVX2+FMA flags). Loops that live in autograd/ops.cpp — also a baseline
//    TU — may be replicated here verbatim and round identically. Anything
//    implemented in tensor_ops.cpp that chains a multiply into an add (GEMM)
//    or evaluates transcendentals (sigmoid/tanh/softmax) must be CALLED, not
//    re-written, so the arithmetic runs under that TU's flags and code paths.
//  * Gradient slots follow the tape's first-write/accumulate discipline: the
//    first contribution writes its formula directly (Node::accumulate copies
//    on first use); later elementwise contributions fuse `slot += expr`
//    (separate mul + add in a no-FMA TU, identical to eager's
//    compute-then-add_inplace); later contributions from kernels that
//    accumulate internally (conv dX/dW/db, linear, broadcast-mul dA) go
//    through a zeroed scratch value and a plain full add, exactly like the
//    eager Tensor::zeros temporary.
//  * GEMM small-vs-blocked dispatch and the conv1d direct-vs-im2col lowering
//    are decided at capture from the same shape-only predicates the eager
//    kernels evaluate per call, so a replay can never pick a different
//    summation order than the tape it replaced.
#include "graph/train.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/trace.h"
#include "common/check.h"
#include "common/rng.h"
#include "graph/plan.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor_ops.h"

namespace rptcn::graph {
namespace {

using ag::trace::OpKind;
using ag::trace::OpRecord;
using ag::trace::TapeTrace;
using autograd::Node;
using NodePtr = std::shared_ptr<autograd::Node>;

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

/// Weight operands prepacked for the blocked GEMM. Refreshed from the live
/// parameter tensors by pack steps at the top of every replay: in-plan Adam
/// updates mutate the weights each step without bumping weights_version, so
/// a pack can never be reused ACROSS steps — the win is reuse WITHIN one
/// step (the LSTM gate weights are consumed once per timestep forward and
/// once per timestep in backward-dX; 2T GEMMs share one pack pass).
struct PackRegistry {
  std::vector<rptcn::PackedB> packs;
};

/// Capture-time reference to one op operand: either a planned value or a
/// baked leaf node (parameter / constant). Baked reads go through the node
/// every replay, so Adam's in-place parameter updates (and checkpoint
/// restores that keep the same nodes) are picked up automatically.
struct SrcRef {
  bool is_val = false;
  ValueId id = 0;
  NodePtr baked;
};

using CSrc = std::function<const float*(const ExecContext&)>;

CSrc bind_src(const Resolver& rv, const SrcRef& s) {
  if (s.is_val) return rv.cptr(s.id);
  return [n = s.baked](const ExecContext&) { return n->value.raw(); };
}

/// Compiles one TapeTrace into an Executable. Returns nullptr whenever the
/// trace contains anything it cannot re-emit bit-identically; the caller
/// then pins this shape to the eager path.
///
/// Two modes share every forward emitter. A training compile (first
/// constructor) emits the forward up to the loss, then the backward in the
/// tape's firing order, writing parameter gradients into the optimizer slab.
/// A forward-only compile (second constructor) emits the forward records
/// with `output` as the program output; its leaves are frozen, so ops whose
/// operands are all leaves (weight_norm) fold to their probe values and
/// weight prepacks happen once at compile time instead of every replay.
class Compiler {
 public:
  Compiler(const TapeTrace& trace, NodePtr input, NodePtr loss,
           const std::vector<Variable>& params,
           const std::vector<std::size_t>& offsets, std::size_t target_floats)
      : trace_(trace),
        input_(std::move(input)),
        output_(std::move(loss)),
        builder_(input_->value.shape(), {1}),
        preg_(std::make_shared<PackRegistry>()),
        target_floats_(target_floats) {
    val_[input_.get()] = builder_.input_value();
    target_ = builder_.target_value(target_floats);
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Node* pn = params[i].node().get();
      const ValueId id = builder_.grads_value(offsets[i], params[i].size());
      floats_[id] = params[i].size();
      gslot_.emplace(pn, GSlot{id, false});
    }
  }

  Compiler(const TapeTrace& trace, NodePtr input, NodePtr output)
      : trace_(trace),
        input_(std::move(input)),
        output_(std::move(output)),
        forward_only_(true),
        builder_(input_->value.shape(), output_->value.shape()),
        preg_(std::make_shared<PackRegistry>()) {
    val_[input_.get()] = builder_.input_value();
  }

  std::shared_ptr<const Executable> run() {
    if (forward_only_) {
      for (const OpRecord& r : trace_.ops)
        if (!emit_forward(r)) return nullptr;
      return output_emitted_ ? builder_.finish() : nullptr;
    }
    if (trace_.ops.empty() || trace_.backward_order.empty()) return nullptr;
    for (const OpRecord& r : trace_.ops)
      if (!emit_forward(r)) return nullptr;
    if (!output_emitted_) return nullptr;
    for (Node* n : trace_.backward_order)
      if (!emit_backward(n)) return nullptr;
    // Parameters the probe never touched keep an all-zero gradient (the
    // tape's lazily-materialised zeros); the slab must say the same.
    for (const auto& [pn, slot] : gslot_) {
      (void)pn;
      if (slot.written) continue;
      EmitSpec spec;
      spec.name = "zero_grad";
      spec.outputs.push_back(slot.id);
      const std::size_t sz = value_floats(slot.id);
      builder_.emit(std::move(spec),
                    [id = slot.id, sz](const Resolver& rv) -> Operation {
                      auto dp = rv.ptr(id);
                      return [=](const ExecContext& c) {
                        std::fill_n(dp(c), sz, 0.0f);
                      };
                    });
    }
    return builder_.finish();
  }

 private:
  struct GSlot {
    ValueId id = 0;
    bool written = false;
  };

  std::size_t value_floats(ValueId id) const { return floats_.at(id); }

  ValueId new_value(std::size_t floats) {
    const ValueId id = builder_.value(floats);
    floats_[id] = floats;
    return id;
  }

  bool resolve(const NodePtr& n, SrcRef* out) {
    auto it = val_.find(n.get());
    if (it != val_.end()) {
      out->is_val = true;
      out->id = it->second;
      return true;
    }
    // Bake true leaves (parameters, constants) and folded results only. A
    // node some untraced op produced is parentless too whenever none of its
    // operands needed a gradient, but its value derives from this batch's
    // input: baking it would replay the probe's data forever.
    if (std::strcmp(n->op, "leaf") == 0 || folded_.count(n.get()) != 0) {
      out->baked = n;
      return true;
    }
    return false;  // produced by an op the trace did not record
  }

  /// Forward-only folding: every operand is a frozen leaf or an already
  /// folded result, so the probe's value is the value of every replay.
  bool foldable(const OpRecord& r) {
    for (const NodePtr& in : r.in) {
      SrcRef s;
      if (in != nullptr && (!resolve(in, &s) || s.is_val)) return false;
    }
    return true;
  }

  void add_in(EmitSpec& spec, const SrcRef& s) {
    if (s.is_val) spec.inputs.push_back(s.id);
  }

  /// Register a gradient contribution to n's slot on `spec` and return
  /// whether it is the first (direct write) or a later one (accumulate).
  bool begin_contrib(const NodePtr& n, EmitSpec& spec, ValueId* slot) {
    auto it = gslot_.find(n.get());
    if (it == gslot_.end())
      it = gslot_.emplace(n.get(), GSlot{new_value(n->value.size()), false})
               .first;
    const bool first = !it->second.written;
    it->second.written = true;
    if (!first) spec.inputs.push_back(it->second.id);
    spec.outputs.push_back(it->second.id);
    *slot = it->second.id;
    return first;
  }

  /// Prepack op(B) of a baked weight once per replay; returns the registry
  /// index. Keyed by (node, trans_b) so forward (W^T) and backward-dX (W)
  /// each get one pack shared across every GEMM site that uses it.
  std::size_t ensure_pack(const NodePtr& w, bool trans_b, std::size_t ldb,
                          std::size_t k, std::size_t n) {
    const auto key = std::make_pair(static_cast<const Node*>(w.get()), trans_b);
    auto it = pack_idx_.find(key);
    if (it != pack_idx_.end()) return it->second;
    const std::size_t idx = preg_->packs.size();
    preg_->packs.emplace_back();
    pack_idx_.emplace(key, idx);
    if (forward_only_) {  // frozen weights: one pack serves every replay
      preg_->packs[idx] = rptcn::gemm_pack_b(w->value.raw(), ldb, trans_b, k, n);
      return idx;
    }
    EmitSpec spec;
    spec.name = "pack_w";
    builder_.emit(spec, [preg = preg_, idx, w, ldb, trans_b, k,
                         n](const Resolver&) -> Operation {
      return [=](const ExecContext&) {
        preg->packs[idx] = rptcn::gemm_pack_b(w->value.raw(), ldb, trans_b, k, n);
      };
    });
    return idx;
  }

  /// Materialise the im2col patch matrix of x (for one conv geometry) as an
  /// arena value, once per program. The forward GEMM and the backward-dW
  /// GEMM both consume it; the chunked eager kernels rebuild it on each of
  /// those calls. Only valid in the single-chunk regime, where the patch
  /// layout is consumer-independent.
  ValueId ensure_patches(const SrcRef& x, std::size_t n, std::size_t cin,
                         std::size_t t_in, std::size_t k, std::size_t d,
                         std::size_t pad, std::size_t t_out) {
    const std::array<std::size_t, 6> key{
        static_cast<std::size_t>(x.is_val),
        x.is_val ? static_cast<std::size_t>(x.id)
                 : reinterpret_cast<std::size_t>(x.baked.get()),
        k, d, pad, t_out};
    auto it = patches_of_.find(key);
    if (it != patches_of_.end()) return it->second;
    const ValueId pid = new_value(cin * k * n * t_out);
    EmitSpec spec;
    spec.name = "im2col";
    add_in(spec, x);
    spec.outputs.push_back(pid);
    builder_.emit(std::move(spec),
                  [x, pid, n, cin, t_in, k, d, pad,
                   t_out](const Resolver& rv) -> Operation {
                    auto xp = bind_src(rv, x);
                    auto pp = rv.ptr(pid);
                    return [=](const ExecContext& c) {
                      ag::fwd::conv1d_im2col_full(xp(c), n, cin, t_in, k, d,
                                                  pad, t_out, pp(c));
                    };
                  });
    patches_of_.emplace(key, pid);
    return pid;
  }

  /// Materialise dy gathered into the GEMM chunk layout [cout, n*t_out],
  /// once per program; shared by the backward dX and dW GEMMs.
  ValueId ensure_gathered_dy(ValueId gy, std::size_t n, std::size_t cout,
                             std::size_t t_out) {
    auto it = dyg_of_.find(gy);
    if (it != dyg_of_.end()) return it->second;
    const ValueId did = new_value(cout * n * t_out);
    EmitSpec spec;
    spec.name = "gather_dy";
    spec.inputs.push_back(gy);
    spec.outputs.push_back(did);
    builder_.emit(std::move(spec),
                  [gy, did, n, cout, t_out](const Resolver& rv) -> Operation {
                    auto gp = rv.cptr(gy);
                    auto dp = rv.ptr(did);
                    return [=](const ExecContext& c) {
                      ag::fwd::conv1d_gather_dy_full(gp(c), n, cout, t_out,
                                                     dp(c));
                    };
                  });
    dyg_of_.emplace(gy, did);
    return did;
  }

  // -- forward emitters -------------------------------------------------------

  bool emit_forward(const OpRecord& r) {
    Node* res = r.result.get();
    const bool is_output = res == output_.get();
    if (forward_only_) {
      switch (r.kind) {
        case OpKind::kDropout:  // a training-mode forward: not servable
        case OpKind::kSpatialDropout:
        case OpKind::kMseLoss:
        case OpKind::kMaeLoss:
        case OpKind::kPinballLoss:
          return false;
        default:
          break;
      }
      if (foldable(r)) {
        if (is_output) return false;  // an input-independent output
        folded_.insert(res);
        return true;
      }
    }
    const ValueId out =
        is_output ? builder_.output_value() : new_value(res->value.size());
    switch (r.kind) {
      case OpKind::kAdd:
      case OpKind::kMul:
        if (!fwd_elementwise_pair(r, out)) return false;
        break;
      case OpKind::kLinear:
        if (!fwd_linear(r, out)) return false;
        break;
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kTanh:
        if (!fwd_unary(r, out)) return false;
        break;
      case OpKind::kConv1d:
        if (!fwd_conv1d(r, out)) return false;
        break;
      case OpKind::kWeightNorm:
        if (!fwd_weight_norm(r, out)) return false;
        break;
      case OpKind::kDropout:
      case OpKind::kSpatialDropout:
        if (!fwd_dropout(r, out)) return false;
        break;
      case OpKind::kSoftmaxLastdim:
        if (!fwd_softmax(r, out)) return false;
        break;
      case OpKind::kMulBcastChannel:
        if (!fwd_mul_bcast(r, out)) return false;
        break;
      case OpKind::kSumLastdim:
        if (!fwd_sum_lastdim(r, out)) return false;
        break;
      case OpKind::kTimeSlice:
        if (!fwd_time_slice(r, out)) return false;
        break;
      case OpKind::kTimeReverse:
        if (!fwd_time_reverse(r, out)) return false;
        break;
      case OpKind::kConcatCols:
        if (!fwd_concat_cols(r, out)) return false;
        break;
      case OpKind::kSliceCols:
        if (!fwd_slice_cols(r, out)) return false;
        break;
      case OpKind::kMseLoss:
      case OpKind::kMaeLoss:
      case OpKind::kPinballLoss:
        if (!is_output) return false;  // a loss that is not THE loss
        if (!fwd_loss(r, out)) return false;
        output_emitted_ = true;
        break;
    }
    if (forward_only_ && is_output) output_emitted_ = true;
    val_[res] = out;
    rec_of_[res] = &r;
    return true;
  }

  bool fwd_elementwise_pair(const OpRecord& r, ValueId out) {
    SrcRef a, b;
    if (!resolve(r.in[0], &a) || !resolve(r.in[1], &b)) return false;
    const std::size_t n = r.result->value.size();
    const bool is_mul = r.kind == OpKind::kMul;
    EmitSpec spec;
    spec.name = is_mul ? "mul" : "add";
    add_in(spec, a);
    add_in(spec, b);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [a, b, n, is_mul, out](const Resolver& rv) -> Operation {
                    auto ap = bind_src(rv, a);
                    auto bp = bind_src(rv, b);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* x = ap(c);
                      const float* y = bp(c);
                      float* o = op(c);
                      if (is_mul)
                        for (std::size_t i = 0; i < n; ++i) o[i] = x[i] * y[i];
                      else
                        for (std::size_t i = 0; i < n; ++i) o[i] = x[i] + y[i];
                    };
                  });
    return true;
  }

  bool fwd_linear(const OpRecord& r, ValueId out) {
    SrcRef x, w, b;
    if (!resolve(r.in[0], &x) || !resolve(r.in[1], &w)) return false;
    const bool has_bias = r.in[2] != nullptr;
    if (has_bias && !resolve(r.in[2], &b)) return false;
    const std::size_t m = r.in[0]->value.dim(0);
    const std::size_t in_f = r.in[1]->value.dim(1);
    const std::size_t out_f = r.in[1]->value.dim(0);
    // y = x·Wᵀ: prepack W when it is a baked leaf and the shape takes the
    // blocked path (the packed replay is bit-identical only there).
    const bool blocked = rptcn::gemm_uses_blocked(m, out_f, in_f);
    const bool packed = blocked && !w.is_val;
    const std::size_t pidx =
        packed ? ensure_pack(w.baked, /*trans_b=*/true, in_f, in_f, out_f) : 0;
    EmitSpec spec;
    spec.name = "linear";
    add_in(spec, x);
    add_in(spec, w);
    if (has_bias) add_in(spec, b);
    spec.outputs.push_back(out);
    builder_.emit(
        std::move(spec),
        [x, w, b, has_bias, m, in_f, out_f, packed, pidx, preg = preg_,
         out](const Resolver& rv) -> Operation {
          auto xp = bind_src(rv, x);
          auto wp = bind_src(rv, w);
          CSrc bp = has_bias ? bind_src(rv, b) : CSrc();
          auto op = rv.ptr(out);
          return [=](const ExecContext& c) {
            float* y = op(c);
            std::fill_n(y, m * out_f, 0.0f);
            if (packed)
              rptcn::gemm_accumulate_packed_b(m, out_f, in_f, xp(c), in_f,
                                              false, preg->packs[pidx], y);
            else
              rptcn::gemm_accumulate(m, out_f, in_f, xp(c), in_f, false, wp(c),
                                     in_f, true, y);
            if (has_bias) {
              const float* bv = bp(c);
              for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < out_f; ++j)
                  y[i * out_f + j] += bv[j];
            }
          };
        });
    return true;
  }

  bool fwd_unary(const OpRecord& r, ValueId out) {
    SrcRef a;
    if (!resolve(r.in[0], &a)) return false;
    const std::size_t n = r.result->value.size();
    const OpKind kind = r.kind;
    EmitSpec spec;
    spec.name = kind == OpKind::kRelu      ? "relu"
                : kind == OpKind::kSigmoid ? "sigmoid"
                                           : "tanh";
    add_in(spec, a);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [a, n, kind, out](const Resolver& rv) -> Operation {
                    auto ap = bind_src(rv, a);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* x = ap(c);
                      float* o = op(c);
                      if (kind == OpKind::kRelu) {
                        for (std::size_t i = 0; i < n; ++i)
                          o[i] = x[i] > 0.0f ? x[i] : 0.0f;
                      } else {
                        // transcendental pipelines live in tensor_ops.cpp
                        std::copy_n(x, n, o);
                        if (kind == OpKind::kSigmoid)
                          rptcn::sigmoid_inplace(o, n);
                        else
                          rptcn::tanh_inplace(o, n);
                      }
                    };
                  });
    return true;
  }

  bool fwd_conv1d(const OpRecord& r, ValueId out) {
    SrcRef x, w, b;
    if (!resolve(r.in[0], &x) || !resolve(r.in[1], &w)) return false;
    const bool has_bias = r.in[2] != nullptr;
    if (has_bias && !resolve(r.in[2], &b)) return false;
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t cin = r.in[0]->value.dim(1);
    const std::size_t t_in = r.in[0]->value.dim(2);
    const std::size_t cout = r.in[1]->value.dim(0);
    const std::size_t k = r.in[1]->value.dim(2);
    const std::size_t t_out = r.result->value.dim(2);
    const std::size_t d = r.a, pad = r.b;
    // Same shape-only dispatch the eager forward makes (pinned to N=1 under
    // SingleWindowConvDispatch).
    const bool use_gemm = ag::fwd::conv1d_uses_gemm(n, cin, cout, k, t_out);
    const bool prepatch =
        use_gemm && ag::fwd::conv1d_gemm_single_chunk(n, cin, k, t_out);
    if (prepatch) {
      // Build the patch matrix as its own step; the backward-dW GEMM of this
      // conv reuses it instead of re-running im2col over the same x.
      const ValueId patches =
          ensure_patches(x, n, cin, t_in, k, d, pad, t_out);
      EmitSpec spec;
      spec.name = "conv1d_gemm";
      spec.inputs.push_back(patches);
      add_in(spec, w);
      if (has_bias) add_in(spec, b);
      spec.outputs.push_back(out);
      builder_.emit(
          std::move(spec),
          [patches, w, b, has_bias, n, cin, cout, k, t_out,
           out](const Resolver& rv) -> Operation {
            auto pp = rv.cptr(patches);
            auto wp = bind_src(rv, w);
            CSrc bp = has_bias ? bind_src(rv, b) : CSrc();
            auto op = rv.ptr(out);
            return [=](const ExecContext& c) {
              ag::fwd::conv1d_forward_gemm_prepatched(
                  pp(c), wp(c), has_bias ? bp(c) : nullptr, n, cin, cout, k,
                  t_out, op(c));
            };
          });
      return true;
    }
    EmitSpec spec;
    spec.name = use_gemm ? "conv1d_gemm" : "conv1d_direct";
    add_in(spec, x);
    add_in(spec, w);
    if (has_bias) add_in(spec, b);
    spec.outputs.push_back(out);
    builder_.emit(
        std::move(spec),
        [x, w, b, has_bias, n, cin, t_in, cout, k, t_out, d, pad, use_gemm,
         out](const Resolver& rv) -> Operation {
          auto xp = bind_src(rv, x);
          auto wp = bind_src(rv, w);
          CSrc bp = has_bias ? bind_src(rv, b) : CSrc();
          auto op = rv.ptr(out);
          return [=](const ExecContext& c) {
            const float* bv = has_bias ? bp(c) : nullptr;
            if (use_gemm)
              ag::fwd::conv1d_forward_gemm_raw(xp(c), wp(c), bv, n, cin, t_in,
                                               cout, k, d, pad, t_out, op(c));
            else
              ag::fwd::conv1d_direct_strided(xp(c), cin * t_in, t_in, wp(c),
                                             bv, n, cin, t_in, cout, k, d, pad,
                                             t_out, op(c), cout * t_out, t_out);
          };
        });
    return true;
  }

  bool fwd_weight_norm(const OpRecord& r, ValueId out) {
    SrcRef v, g;
    if (!resolve(r.in[0], &v) || !resolve(r.in[1], &g)) return false;
    const std::size_t cout = r.in[0]->value.dim(0);
    const std::size_t row = r.in[0]->value.size() / cout;
    // Per-channel norms feed the backward closure; keep them in the arena.
    const ValueId norms = new_value(cout);
    norms_of_[r.result.get()] = norms;
    EmitSpec spec;
    spec.name = "weight_norm";
    add_in(spec, v);
    add_in(spec, g);
    spec.outputs.push_back(out);
    spec.outputs.push_back(norms);
    builder_.emit(
        std::move(spec),
        [v, g, cout, row, out, norms](const Resolver& rv) -> Operation {
          auto vp = bind_src(rv, v);
          auto gp = bind_src(rv, g);
          auto op = rv.ptr(out);
          auto np = rv.ptr(norms);
          return [=](const ExecContext& c) {
            const float* pv = vp(c);
            const float* pg = gp(c);
            float* po = op(c);
            float* pn = np(c);
            for (std::size_t ch = 0; ch < cout; ++ch) {
              double s = 0.0;
              for (std::size_t i = 0; i < row; ++i) {
                const float vv = pv[ch * row + i];
                s += static_cast<double>(vv) * vv;
              }
              const float nrm =
                  static_cast<float>(std::sqrt(std::max(s, 1e-24)));
              pn[ch] = nrm;
              const float scale = pg[ch] / nrm;
              for (std::size_t i = 0; i < row; ++i)
                po[ch * row + i] = pv[ch * row + i] * scale;
            }
          };
        });
    return true;
  }

  bool fwd_dropout(const OpRecord& r, ValueId out) {
    SrcRef x;
    if (!resolve(r.in[0], &x)) return false;
    if (r.rng == nullptr) return false;
    const std::size_t n = r.result->value.size();
    const float p = r.scalar;
    const float scale = 1.0f / (1.0f - p);
    const ValueId mask = new_value(n);
    mask_of_[r.result.get()] = mask;
    const bool spatial = r.kind == OpKind::kSpatialDropout;
    const std::size_t nb = spatial ? r.result->value.dim(0) : 0;
    const std::size_t cb = spatial ? r.result->value.dim(1) : 0;
    const std::size_t tb = spatial ? r.result->value.dim(2) : 0;
    EmitSpec spec;
    spec.name = spatial ? "spatial_dropout" : "dropout";
    add_in(spec, x);
    spec.outputs.push_back(out);
    spec.outputs.push_back(mask);
    builder_.emit(
        std::move(spec),
        [x, rng = r.rng, n, p, scale, spatial, nb, cb, tb, out,
         mask](const Resolver& rv) -> Operation {
          auto xp = bind_src(rv, x);
          auto op = rv.ptr(out);
          auto mp = rv.ptr(mask);
          return [=](const ExecContext& c) {
            float* mk = mp(c);
            // Draws advance the net's live stream in the exact eager order.
            if (spatial) {
              for (std::size_t ni = 0; ni < nb; ++ni)
                for (std::size_t ci = 0; ci < cb; ++ci) {
                  const float m = rng->bernoulli(p) ? 0.0f : scale;
                  float* row = mk + (ni * cb + ci) * tb;
                  for (std::size_t ti = 0; ti < tb; ++ti) row[ti] = m;
                }
            } else {
              for (std::size_t i = 0; i < n; ++i)
                mk[i] = rng->bernoulli(p) ? 0.0f : scale;
            }
            const float* xv = xp(c);
            float* o = op(c);
            for (std::size_t i = 0; i < n; ++i) o[i] = xv[i] * mk[i];
          };
        });
    return true;
  }

  bool fwd_softmax(const OpRecord& r, ValueId out) {
    SrcRef a;
    if (!resolve(r.in[0], &a)) return false;
    const std::size_t last = r.result->value.shape().back();
    const std::size_t rows = r.result->value.size() / last;
    EmitSpec spec;
    spec.name = "softmax";
    add_in(spec, a);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [a, rows, last, out](const Resolver& rv) -> Operation {
                    auto ap = bind_src(rv, a);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      rptcn::softmax_rows(ap(c), op(c), rows, last);
                    };
                  });
    return true;
  }

  bool fwd_mul_bcast(const OpRecord& r, ValueId out) {
    SrcRef a, z;
    if (!resolve(r.in[0], &a) || !resolve(r.in[1], &z)) return false;
    const std::size_t n = r.in[1]->value.dim(0);
    const std::size_t cb = r.in[1]->value.dim(1);
    const std::size_t t = r.in[1]->value.dim(2);
    EmitSpec spec;
    spec.name = "mul_bcast";
    add_in(spec, a);
    add_in(spec, z);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [a, z, n, cb, t, out](const Resolver& rv) -> Operation {
                    auto ap = bind_src(rv, a);
                    auto zp = bind_src(rv, z);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* av = ap(c);
                      const float* zv = zp(c);
                      float* o = op(c);
                      for (std::size_t ni = 0; ni < n; ++ni) {
                        const float* arow = av + ni * t;
                        for (std::size_t ci = 0; ci < cb; ++ci) {
                          const float* zrow = zv + (ni * cb + ci) * t;
                          float* orow = o + (ni * cb + ci) * t;
                          for (std::size_t ti = 0; ti < t; ++ti)
                            orow[ti] = arow[ti] * zrow[ti];
                        }
                      }
                    };
                  });
    return true;
  }

  bool fwd_sum_lastdim(const OpRecord& r, ValueId out) {
    SrcRef a;
    if (!resolve(r.in[0], &a)) return false;
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t cb = r.in[0]->value.dim(1);
    const std::size_t t = r.in[0]->value.dim(2);
    EmitSpec spec;
    spec.name = "sum_lastdim";
    add_in(spec, a);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [a, n, cb, t, out](const Resolver& rv) -> Operation {
                    auto ap = bind_src(rv, a);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* av = ap(c);
                      float* o = op(c);
                      for (std::size_t ni = 0; ni < n; ++ni)
                        for (std::size_t ci = 0; ci < cb; ++ci) {
                          const float* row = av + (ni * cb + ci) * t;
                          double s = 0.0;
                          for (std::size_t ti = 0; ti < t; ++ti) s += row[ti];
                          o[ni * cb + ci] = static_cast<float>(s);
                        }
                    };
                  });
    return true;
  }

  bool fwd_time_slice(const OpRecord& r, ValueId out) {
    SrcRef x;
    if (!resolve(r.in[0], &x)) return false;
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t cb = r.in[0]->value.dim(1);
    const std::size_t tt = r.in[0]->value.dim(2);
    const std::size_t t = r.a;
    EmitSpec spec;
    spec.name = "time_slice";
    add_in(spec, x);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [x, n, cb, tt, t, out](const Resolver& rv) -> Operation {
                    auto xp = bind_src(rv, x);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* xv = xp(c);
                      float* o = op(c);
                      for (std::size_t ni = 0; ni < n; ++ni)
                        for (std::size_t ci = 0; ci < cb; ++ci)
                          o[ni * cb + ci] = xv[(ni * cb + ci) * tt + t];
                    };
                  });
    return true;
  }

  bool fwd_time_reverse(const OpRecord& r, ValueId out) {
    SrcRef x;
    if (!resolve(r.in[0], &x)) return false;
    const std::size_t rows =
        r.in[0]->value.dim(0) * r.in[0]->value.dim(1);
    const std::size_t t = r.in[0]->value.dim(2);
    EmitSpec spec;
    spec.name = "time_reverse";
    add_in(spec, x);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [x, rows, t, out](const Resolver& rv) -> Operation {
                    auto xp = bind_src(rv, x);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* xv = xp(c);
                      float* o = op(c);
                      for (std::size_t rr = 0; rr < rows; ++rr) {
                        const float* src = xv + rr * t;
                        float* dst = o + rr * t;
                        for (std::size_t ti = 0; ti < t; ++ti)
                          dst[ti] = src[t - 1 - ti];
                      }
                    };
                  });
    return true;
  }

  bool fwd_concat_cols(const OpRecord& r, ValueId out) {
    SrcRef a, b;
    if (!resolve(r.in[0], &a) || !resolve(r.in[1], &b)) return false;
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t fa = r.in[0]->value.dim(1);
    const std::size_t fb = r.in[1]->value.dim(1);
    EmitSpec spec;
    spec.name = "concat_cols";
    add_in(spec, a);
    add_in(spec, b);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [a, b, n, fa, fb, out](const Resolver& rv) -> Operation {
                    auto ap = bind_src(rv, a);
                    auto bp = bind_src(rv, b);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* av = ap(c);
                      const float* bv = bp(c);
                      float* o = op(c);
                      for (std::size_t i = 0; i < n; ++i) {
                        std::copy_n(av + i * fa, fa, o + i * (fa + fb));
                        std::copy_n(bv + i * fb, fb, o + i * (fa + fb) + fa);
                      }
                    };
                  });
    return true;
  }

  bool fwd_slice_cols(const OpRecord& r, ValueId out) {
    SrcRef x;
    if (!resolve(r.in[0], &x)) return false;
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t f = r.in[0]->value.dim(1);
    const std::size_t start = r.a, count = r.b;
    EmitSpec spec;
    spec.name = "slice_cols";
    add_in(spec, x);
    spec.outputs.push_back(out);
    builder_.emit(std::move(spec),
                  [x, n, f, start, count, out](const Resolver& rv) -> Operation {
                    auto xp = bind_src(rv, x);
                    auto op = rv.ptr(out);
                    return [=](const ExecContext& c) {
                      const float* xv = xp(c);
                      float* o = op(c);
                      for (std::size_t i = 0; i < n; ++i)
                        std::copy_n(xv + i * f + start, count, o + i * count);
                    };
                  });
    return true;
  }

  bool fwd_loss(const OpRecord& r, ValueId out) {
    SrcRef p;
    if (!resolve(r.in[0], &p)) return false;
    const std::size_t n = r.in[0]->value.size();
    if (target_floats_ != n) return false;  // pred/target mismatch
    const OpKind kind = r.kind;
    const float tau = r.scalar;
    EmitSpec spec;
    spec.name = kind == OpKind::kMseLoss   ? "mse_loss"
                : kind == OpKind::kMaeLoss ? "mae_loss"
                                           : "pinball_loss";
    add_in(spec, p);
    spec.inputs.push_back(target_);
    spec.outputs.push_back(out);
    builder_.emit(
        std::move(spec),
        [p, n, kind, tau, tgt = target_, out](const Resolver& rv) -> Operation {
          auto pp = bind_src(rv, p);
          auto tp = rv.cptr(tgt);
          auto op = rv.ptr(out);
          return [=](const ExecContext& c) {
            const float* pv = pp(c);
            const float* tv = tp(c);
            double acc = 0.0;
            if (kind == OpKind::kMseLoss) {
              for (std::size_t i = 0; i < n; ++i) {
                const double dd = static_cast<double>(pv[i]) - tv[i];
                acc += dd * dd;
              }
            } else if (kind == OpKind::kMaeLoss) {
              for (std::size_t i = 0; i < n; ++i)
                acc += std::fabs(static_cast<double>(pv[i]) - tv[i]);
            } else {
              for (std::size_t i = 0; i < n; ++i) {
                const double diff = static_cast<double>(tv[i]) - pv[i];
                acc += diff >= 0.0 ? tau * diff : (tau - 1.0) * diff;
              }
            }
            op(c)[0] = static_cast<float>(acc / static_cast<double>(n));
          };
        });
    return true;
  }

  // -- backward emitters ------------------------------------------------------

  bool emit_backward(Node* n) {
    auto rit = rec_of_.find(n);
    if (rit == rec_of_.end()) return false;  // unrecorded closure fired
    const OpRecord& r = *rit->second;
    const bool is_loss = n == output_.get();
    ValueId gy = 0;
    if (!is_loss) {
      auto git = gslot_.find(n);
      if (git == gslot_.end() || !git->second.written) return false;
      gy = git->second.id;
    }
    switch (r.kind) {
      case OpKind::kAdd:
        if (r.in[0]->requires_grad) bwd_copy(r.in[0], gy);
        if (r.in[1]->requires_grad) bwd_copy(r.in[1], gy);
        return true;
      case OpKind::kMul:
        if (r.in[0]->requires_grad) bwd_mul(r.in[0], gy, r.in[1]);
        if (r.in[1]->requires_grad) bwd_mul(r.in[1], gy, r.in[0]);
        return true;
      case OpKind::kLinear:
        return bwd_linear(r, gy);
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kTanh:
        return bwd_unary(r, gy);
      case OpKind::kConv1d:
        return bwd_conv1d(r, gy);
      case OpKind::kWeightNorm:
        return bwd_weight_norm(r, gy);
      case OpKind::kDropout:
      case OpKind::kSpatialDropout:
        return bwd_dropout(r, gy);
      case OpKind::kSoftmaxLastdim:
        return bwd_softmax(r, gy);
      case OpKind::kMulBcastChannel:
        return bwd_mul_bcast(r, gy);
      case OpKind::kSumLastdim:
        return bwd_sum_lastdim(r, gy);
      case OpKind::kTimeSlice:
        return bwd_time_slice(r, gy);
      case OpKind::kTimeReverse:
        return bwd_time_reverse(r, gy);
      case OpKind::kConcatCols:
        return bwd_concat_cols(r, gy);
      case OpKind::kSliceCols:
        return bwd_slice_cols(r, gy);
      case OpKind::kMseLoss:
      case OpKind::kMaeLoss:
      case OpKind::kPinballLoss:
        return bwd_loss(r);
    }
    return false;
  }

  /// parent += gy (add's pass-through).
  void bwd_copy(const NodePtr& parent, ValueId gy) {
    const std::size_t n = parent->value.size();
    EmitSpec spec;
    spec.name = "bwd_copy";
    spec.inputs.push_back(gy);
    ValueId slot = 0;
    const bool first = begin_contrib(parent, spec, &slot);
    builder_.emit(std::move(spec),
                  [gy, slot, first, n](const Resolver& rv) -> Operation {
                    auto gp = rv.cptr(gy);
                    auto dp = rv.ptr(slot);
                    return [=](const ExecContext& c) {
                      const float* g = gp(c);
                      float* o = dp(c);
                      if (first)
                        for (std::size_t i = 0; i < n; ++i) o[i] = g[i];
                      else
                        for (std::size_t i = 0; i < n; ++i) o[i] += g[i];
                    };
                  });
  }

  /// parent += gy * other.value (mul's per-side rule).
  void bwd_mul(const NodePtr& parent, ValueId gy, const NodePtr& other) {
    SrcRef ov;
    // `other` is a forward operand of a recorded op, so resolve cannot fail.
    RPTCN_CHECK(resolve(other, &ov), "planned train: mul operand vanished");
    const std::size_t n = parent->value.size();
    EmitSpec spec;
    spec.name = "bwd_mul";
    spec.inputs.push_back(gy);
    add_in(spec, ov);
    ValueId slot = 0;
    const bool first = begin_contrib(parent, spec, &slot);
    builder_.emit(std::move(spec),
                  [gy, ov, slot, first, n](const Resolver& rv) -> Operation {
                    auto gp = rv.cptr(gy);
                    auto op2 = bind_src(rv, ov);
                    auto dp = rv.ptr(slot);
                    return [=](const ExecContext& c) {
                      const float* g = gp(c);
                      const float* y = op2(c);
                      float* o = dp(c);
                      if (first)
                        for (std::size_t i = 0; i < n; ++i) o[i] = g[i] * y[i];
                      else
                        for (std::size_t i = 0; i < n; ++i) o[i] += g[i] * y[i];
                    };
                  });
  }

  /// Internal-accumulation contribution: zero the destination, run `kernel`
  /// (which accumulates into it), and, when the slot already holds earlier
  /// contributions, route through a scratch value and add — the planned twin
  /// of `accumulate(Tensor::zeros + kernel)`.
  template <typename KernelBind>
  void emit_accum_contrib(const char* name, const NodePtr& parent,
                          EmitSpec spec, std::size_t floats,
                          KernelBind bind_kernel) {
    ValueId slot = 0;
    const bool first = begin_contrib(parent, spec, &slot);
    ValueId dst = slot;
    if (!first) {
      dst = new_value(floats);
      spec.scratch.push_back(dst);
    }
    spec.name = name;
    builder_.emit(
        std::move(spec),
        [slot, dst, first, floats, bind_kernel](const Resolver& rv) -> Operation {
          auto kernel = bind_kernel(rv);
          auto dp = rv.ptr(dst);
          auto sp = rv.ptr(slot);
          return [=](const ExecContext& c) {
            float* d = dp(c);
            std::fill_n(d, floats, 0.0f);
            kernel(c, d);
            if (!first) {
              float* s = sp(c);
              for (std::size_t i = 0; i < floats; ++i) s[i] += d[i];
            }
          };
        });
  }

  bool bwd_linear(const OpRecord& r, ValueId gy) {
    SrcRef x, w;
    if (!resolve(r.in[0], &x) || !resolve(r.in[1], &w)) return false;
    const std::size_t m = r.in[0]->value.dim(0);
    const std::size_t in_f = r.in[1]->value.dim(1);
    const std::size_t out_f = r.in[1]->value.dim(0);
    if (r.in[0]->requires_grad) {
      // dx = dy·W — the second weight-side GEMM worth a shared pack.
      const bool blocked = rptcn::gemm_uses_blocked(m, in_f, out_f);
      const bool packed = blocked && !w.is_val;
      const std::size_t pidx =
          packed ? ensure_pack(w.baked, /*trans_b=*/false, in_f, out_f, in_f)
                 : 0;
      EmitSpec spec;
      spec.inputs.push_back(gy);
      add_in(spec, w);
      emit_accum_contrib(
          "bwd_linear_dx", r.in[0], std::move(spec), m * in_f,
          [gy, w, m, in_f, out_f, packed, pidx, preg = preg_](const Resolver& rv) {
            auto gp = rv.cptr(gy);
            auto wp = bind_src(rv, w);
            return [=](const ExecContext& c, float* d) {
              if (packed)
                rptcn::gemm_accumulate_packed_b(m, in_f, out_f, gp(c), out_f,
                                                false, preg->packs[pidx], d);
              else
                rptcn::gemm_accumulate(m, in_f, out_f, gp(c), out_f, false,
                                       wp(c), in_f, false, d);
            };
          });
    }
    if (r.in[1]->requires_grad) {
      // dw = dyᵀ·x — activations on the B side, nothing to prepack.
      EmitSpec spec;
      spec.inputs.push_back(gy);
      add_in(spec, x);
      emit_accum_contrib("bwd_linear_dw", r.in[1], std::move(spec),
                         out_f * in_f,
                         [gy, x, m, in_f, out_f](const Resolver& rv) {
                           auto gp = rv.cptr(gy);
                           auto xp = bind_src(rv, x);
                           return [=](const ExecContext& c, float* d) {
                             rptcn::gemm_accumulate(out_f, in_f, m, gp(c),
                                                    out_f, true, xp(c), in_f,
                                                    false, d);
                           };
                         });
    }
    if (r.in[2] != nullptr && r.in[2]->requires_grad) {
      EmitSpec spec;
      spec.inputs.push_back(gy);
      emit_accum_contrib("bwd_linear_db", r.in[2], std::move(spec), out_f,
                         [gy, m, out_f](const Resolver& rv) {
                           auto gp = rv.cptr(gy);
                           return [=](const ExecContext& c, float* d) {
                             const float* g = gp(c);
                             // sum_cols' exact (i, j) order
                             for (std::size_t i = 0; i < m; ++i)
                               for (std::size_t j = 0; j < out_f; ++j)
                                 d[j] += g[i * out_f + j];
                           };
                         });
    }
    return true;
  }

  bool bwd_unary(const OpRecord& r, ValueId gy) {
    // relu reads the parent's value; sigmoid/tanh read the forward OUTPUT.
    const bool from_out = r.kind != OpKind::kRelu;
    SrcRef s;
    if (!resolve(from_out ? r.result : r.in[0], &s)) return false;
    const std::size_t n = r.result->value.size();
    const OpKind kind = r.kind;
    EmitSpec spec;
    spec.name = "bwd_unary";
    spec.inputs.push_back(gy);
    add_in(spec, s);
    ValueId slot = 0;
    const bool first = begin_contrib(r.in[0], spec, &slot);
    builder_.emit(
        std::move(spec),
        [gy, s, slot, first, n, kind](const Resolver& rv) -> Operation {
          auto gp = rv.cptr(gy);
          auto sp = bind_src(rv, s);
          auto dp = rv.ptr(slot);
          // Six specialised loops (kind × first/accumulate): per-element
          // arithmetic is unchanged, but hoisting the selection out of the
          // loop lets these bodies auto-vectorise like the tape's dedicated
          // backward loops in autograd/ops.cpp do.
          switch (kind) {
            case OpKind::kRelu:
              // Hoisting the g[i] load out of the select makes both arms
              // register operands, so the compiler if-converts and
              // vectorises instead of emitting a data-dependent branch
              // (~50% mispredict rate on a live relu mask). Selection has
              // no rounding: the stored bits are g[i]'s or 0.0f's either
              // way, identical to the tape's conditional store.
              return [=](const ExecContext& c) {
                const float* g = gp(c);
                const float* ps = sp(c);
                float* o = dp(c);
                if (first)
                  for (std::size_t i = 0; i < n; ++i) {
                    const float v = g[i];
                    o[i] = ps[i] <= 0.0f ? 0.0f : v;
                  }
                else
                  for (std::size_t i = 0; i < n; ++i) {
                    const float v = g[i];
                    o[i] += ps[i] <= 0.0f ? 0.0f : v;
                  }
              };
            case OpKind::kSigmoid:
              return [=](const ExecContext& c) {
                const float* g = gp(c);
                const float* ps = sp(c);
                float* o = dp(c);
                if (first)
                  for (std::size_t i = 0; i < n; ++i)
                    o[i] = g[i] * (ps[i] * (1.0f - ps[i]));
                else
                  for (std::size_t i = 0; i < n; ++i)
                    o[i] += g[i] * (ps[i] * (1.0f - ps[i]));
              };
            default:
              return [=](const ExecContext& c) {
                const float* g = gp(c);
                const float* ps = sp(c);
                float* o = dp(c);
                if (first)
                  for (std::size_t i = 0; i < n; ++i)
                    o[i] = g[i] * (1.0f - ps[i] * ps[i]);
                else
                  for (std::size_t i = 0; i < n; ++i)
                    o[i] += g[i] * (1.0f - ps[i] * ps[i]);
              };
          }
        });
    return true;
  }

  bool bwd_conv1d(const OpRecord& r, ValueId gy) {
    SrcRef x, w;
    if (!resolve(r.in[0], &x) || !resolve(r.in[1], &w)) return false;
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t cin = r.in[0]->value.dim(1);
    const std::size_t t_in = r.in[0]->value.dim(2);
    const std::size_t cout = r.in[1]->value.dim(0);
    const std::size_t k = r.in[1]->value.dim(2);
    const std::size_t t_out = r.result->value.dim(2);
    const std::size_t d = r.a, pad = r.b;
    const bool lower =
        ag::fwd::conv1d_backward_uses_gemm(n, cin, cout, k, t_out);
    // Same regime the forward emitter checked: when one chunk covers the
    // batch, dX and dW share a single dy gather, and dW reuses the patch
    // matrix the forward conv already built from this x.
    const bool prepatch =
        lower && ag::fwd::conv1d_gemm_single_chunk(n, cin, k, t_out);
    const ValueId dyg = prepatch && (r.in[0]->requires_grad ||
                                     r.in[1]->requires_grad)
                            ? ensure_gathered_dy(gy, n, cout, t_out)
                            : 0;
    if (r.in[0]->requires_grad) {
      EmitSpec spec;
      if (prepatch) {
        spec.inputs.push_back(dyg);
        add_in(spec, w);
        emit_accum_contrib(
            "bwd_conv_dx", r.in[0], std::move(spec), n * cin * t_in,
            [dyg, w, n, cin, t_in, cout, k, d, pad, t_out](const Resolver& rv) {
              auto gp = rv.cptr(dyg);
              auto wp = bind_src(rv, w);
              return [=](const ExecContext& c, float* dst) {
                ag::fwd::conv1d_dx_gemm_pregathered(gp(c), wp(c), n, cin, t_in,
                                                    cout, k, d, pad, t_out,
                                                    dst);
              };
            });
      } else {
        spec.inputs.push_back(gy);
        add_in(spec, w);
        emit_accum_contrib(
            "bwd_conv_dx", r.in[0], std::move(spec), n * cin * t_in,
            [gy, w, n, cin, t_in, cout, k, t_out, d, pad,
             lower](const Resolver& rv) {
              auto gp = rv.cptr(gy);
              auto wp = bind_src(rv, w);
              return [=](const ExecContext& c, float* dst) {
                if (lower)
                  ag::fwd::conv1d_dx_gemm_raw(gp(c), wp(c), n, cin, t_in, cout,
                                              k, d, pad, t_out, dst);
                else
                  ag::fwd::conv1d_dx_direct_raw(gp(c), wp(c), n, cin, t_in,
                                                cout, k, d, pad, t_out, dst);
              };
            });
      }
    }
    if (r.in[1]->requires_grad) {
      EmitSpec spec;
      if (prepatch) {
        const ValueId patches =
            ensure_patches(x, n, cin, t_in, k, d, pad, t_out);
        spec.inputs.push_back(dyg);
        spec.inputs.push_back(patches);
        emit_accum_contrib(
            "bwd_conv_dw", r.in[1], std::move(spec), cout * cin * k,
            [dyg, patches, n, cin, cout, k, t_out](const Resolver& rv) {
              auto gp = rv.cptr(dyg);
              auto pp = rv.cptr(patches);
              return [=](const ExecContext& c, float* dst) {
                ag::fwd::conv1d_dw_gemm_prepatched(gp(c), pp(c), n, cin, cout,
                                                   k, t_out, dst);
              };
            });
      } else {
        spec.inputs.push_back(gy);
        add_in(spec, x);
        emit_accum_contrib(
            "bwd_conv_dw", r.in[1], std::move(spec), cout * cin * k,
            [gy, x, n, cin, t_in, cout, k, t_out, d, pad,
             lower](const Resolver& rv) {
              auto gp = rv.cptr(gy);
              auto xp = bind_src(rv, x);
              return [=](const ExecContext& c, float* dst) {
                if (lower)
                  ag::fwd::conv1d_dw_gemm_raw(gp(c), xp(c), n, cin, t_in, cout,
                                              k, d, pad, t_out, dst);
                else
                  ag::fwd::conv1d_dw_direct_raw(gp(c), xp(c), n, cin, t_in,
                                                cout, k, d, pad, t_out, dst);
              };
            });
      }
    }
    if (r.in[2] != nullptr && r.in[2]->requires_grad) {
      EmitSpec spec;
      spec.inputs.push_back(gy);
      emit_accum_contrib("bwd_conv_db", r.in[2], std::move(spec), cout,
                         [gy, n, cout, t_out](const Resolver& rv) {
                           auto gp = rv.cptr(gy);
                           return [=](const ExecContext& c, float* dst) {
                             ag::fwd::conv1d_db_raw(gp(c), n, cout, t_out,
                                                    dst);
                           };
                         });
    }
    return true;
  }

  bool bwd_weight_norm(const OpRecord& r, ValueId gy) {
    SrcRef v, g;
    if (!resolve(r.in[0], &v) || !resolve(r.in[1], &g)) return false;
    auto nit = norms_of_.find(r.result.get());
    if (nit == norms_of_.end()) return false;
    const ValueId norms = nit->second;
    const std::size_t cout = r.in[0]->value.dim(0);
    const std::size_t row = r.in[0]->value.size() / cout;
    const bool want_dv = r.in[0]->requires_grad;
    const bool want_dg = r.in[1]->requires_grad;
    EmitSpec spec;
    spec.name = "bwd_weight_norm";
    spec.inputs.push_back(gy);
    spec.inputs.push_back(norms);
    add_in(spec, v);
    add_in(spec, g);
    ValueId dv_slot = 0, dg_slot = 0;
    bool dv_first = true, dg_first = true;
    if (want_dv) dv_first = begin_contrib(r.in[0], spec, &dv_slot);
    if (want_dg) dg_first = begin_contrib(r.in[1], spec, &dg_slot);
    builder_.emit(
        std::move(spec),
        [gy, norms, v, g, cout, row, want_dv, want_dg, dv_slot, dg_slot,
         dv_first, dg_first](const Resolver& rv) -> Operation {
          auto gp = rv.cptr(gy);
          auto np = rv.cptr(norms);
          auto vp = bind_src(rv, v);
          auto gainp = bind_src(rv, g);
          auto dvp = want_dv ? rv.ptr(dv_slot)
                             : std::function<float*(const ExecContext&)>();
          auto dgp = want_dg ? rv.ptr(dg_slot)
                             : std::function<float*(const ExecContext&)>();
          return [=](const ExecContext& c) {
            const float* pg = gp(c);
            const float* pv = vp(c);
            const float* pn = np(c);
            const float* pgain = gainp(c);
            float* dv = want_dv ? dvp(c) : nullptr;
            float* dg = want_dg ? dgp(c) : nullptr;
            for (std::size_t ch = 0; ch < cout; ++ch) {
              double dot = 0.0;
              for (std::size_t i = 0; i < row; ++i)
                dot +=
                    static_cast<double>(pg[ch * row + i]) * pv[ch * row + i];
              const float nn = pn[ch];
              const float gc = pgain[ch];
              if (want_dg) {
                const float e = static_cast<float>(dot / nn);
                if (dg_first)
                  dg[ch] = e;
                else
                  dg[ch] += e;
              }
              if (want_dv) {
                const float a = gc / nn;
                const float bcoef = static_cast<float>(
                    gc * dot / (static_cast<double>(nn) * nn * nn));
                for (std::size_t i = 0; i < row; ++i) {
                  const float e =
                      a * pg[ch * row + i] - bcoef * pv[ch * row + i];
                  if (dv_first)
                    dv[ch * row + i] = e;
                  else
                    dv[ch * row + i] += e;
                }
              }
            }
          };
        });
    return true;
  }

  bool bwd_dropout(const OpRecord& r, ValueId gy) {
    auto mit = mask_of_.find(r.result.get());
    if (mit == mask_of_.end()) return false;
    const ValueId mask = mit->second;
    const std::size_t n = r.result->value.size();
    EmitSpec spec;
    spec.name = "bwd_dropout";
    spec.inputs.push_back(gy);
    spec.inputs.push_back(mask);
    ValueId slot = 0;
    const bool first = begin_contrib(r.in[0], spec, &slot);
    builder_.emit(std::move(spec),
                  [gy, mask, slot, first, n](const Resolver& rv) -> Operation {
                    auto gp = rv.cptr(gy);
                    auto mp = rv.cptr(mask);
                    auto dp = rv.ptr(slot);
                    return [=](const ExecContext& c) {
                      const float* g = gp(c);
                      const float* mk = mp(c);
                      float* o = dp(c);
                      if (first)
                        for (std::size_t i = 0; i < n; ++i)
                          o[i] = g[i] * mk[i];
                      else
                        for (std::size_t i = 0; i < n; ++i)
                          o[i] += g[i] * mk[i];
                    };
                  });
    return true;
  }

  bool bwd_softmax(const OpRecord& r, ValueId gy) {
    SrcRef s;
    if (!resolve(r.result, &s)) return false;  // forward output
    const std::size_t last = r.result->value.shape().back();
    const std::size_t rows = r.result->value.size() / last;
    EmitSpec spec;
    spec.name = "bwd_softmax";
    spec.inputs.push_back(gy);
    add_in(spec, s);
    ValueId slot = 0;
    const bool first = begin_contrib(r.in[0], spec, &slot);
    builder_.emit(
        std::move(spec),
        [gy, s, slot, first, rows, last](const Resolver& rv) -> Operation {
          auto gp = rv.cptr(gy);
          auto sp = bind_src(rv, s);
          auto dp = rv.ptr(slot);
          return [=](const ExecContext& c) {
            const float* gv = gp(c);
            const float* sv = sp(c);
            float* o = dp(c);
            for (std::size_t rr = 0; rr < rows; ++rr) {
              const float* ps = sv + rr * last;
              const float* pg = gv + rr * last;
              float* pd = o + rr * last;
              double dot = 0.0;
              for (std::size_t j = 0; j < last; ++j)
                dot += static_cast<double>(pg[j]) * ps[j];
              for (std::size_t j = 0; j < last; ++j) {
                const float e = ps[j] * (pg[j] - static_cast<float>(dot));
                if (first)
                  pd[j] = e;
                else
                  pd[j] += e;
              }
            }
          };
        });
    return true;
  }

  bool bwd_mul_bcast(const OpRecord& r, ValueId gy) {
    SrcRef a, z;
    if (!resolve(r.in[0], &a) || !resolve(r.in[1], &z)) return false;
    const std::size_t nb = r.in[1]->value.dim(0);
    const std::size_t cb = r.in[1]->value.dim(1);
    const std::size_t tb = r.in[1]->value.dim(2);
    if (r.in[0]->requires_grad) {
      // da sums over channels — internal accumulation.
      EmitSpec spec;
      spec.inputs.push_back(gy);
      add_in(spec, z);
      emit_accum_contrib("bwd_bcast_da", r.in[0], std::move(spec), nb * tb,
                         [gy, z, nb, cb, tb](const Resolver& rv) {
                           auto gp = rv.cptr(gy);
                           auto zp = bind_src(rv, z);
                           return [=](const ExecContext& c, float* d) {
                             const float* gv = gp(c);
                             const float* zv = zp(c);
                             for (std::size_t ni = 0; ni < nb; ++ni) {
                               float* darow = d + ni * tb;
                               for (std::size_t ci = 0; ci < cb; ++ci) {
                                 const float* zrow =
                                     zv + (ni * cb + ci) * tb;
                                 const float* grow =
                                     gv + (ni * cb + ci) * tb;
                                 for (std::size_t ti = 0; ti < tb; ++ti)
                                   darow[ti] += grow[ti] * zrow[ti];
                               }
                             }
                           };
                         });
    }
    if (r.in[1]->requires_grad) {
      EmitSpec spec;
      spec.name = "bwd_bcast_dz";
      spec.inputs.push_back(gy);
      add_in(spec, a);
      ValueId slot = 0;
      const bool first = begin_contrib(r.in[1], spec, &slot);
      builder_.emit(
          std::move(spec),
          [gy, a, slot, first, nb, cb, tb](const Resolver& rv) -> Operation {
            auto gp = rv.cptr(gy);
            auto ap = bind_src(rv, a);
            auto dp = rv.ptr(slot);
            return [=](const ExecContext& c) {
              const float* gv = gp(c);
              const float* av = ap(c);
              float* o = dp(c);
              for (std::size_t ni = 0; ni < nb; ++ni) {
                const float* arow = av + ni * tb;
                for (std::size_t ci = 0; ci < cb; ++ci) {
                  const float* grow = gv + (ni * cb + ci) * tb;
                  float* orow = o + (ni * cb + ci) * tb;
                  for (std::size_t ti = 0; ti < tb; ++ti) {
                    const float e = grow[ti] * arow[ti];
                    if (first)
                      orow[ti] = e;
                    else
                      orow[ti] += e;
                  }
                }
              }
            };
          });
    }
    return true;
  }

  bool bwd_sum_lastdim(const OpRecord& r, ValueId gy) {
    const std::size_t nb = r.result->value.dim(0);
    const std::size_t cb = r.result->value.dim(1);
    const std::size_t t = r.in[0]->value.dim(2);
    EmitSpec spec;
    spec.name = "bwd_sum_lastdim";
    spec.inputs.push_back(gy);
    ValueId slot = 0;
    const bool first = begin_contrib(r.in[0], spec, &slot);
    builder_.emit(std::move(spec),
                  [gy, slot, first, nb, cb, t](const Resolver& rv) -> Operation {
                    auto gp = rv.cptr(gy);
                    auto dp = rv.ptr(slot);
                    return [=](const ExecContext& c) {
                      const float* gv = gp(c);
                      float* o = dp(c);
                      for (std::size_t ni = 0; ni < nb; ++ni)
                        for (std::size_t ci = 0; ci < cb; ++ci) {
                          const float g = gv[ni * cb + ci];
                          float* row = o + (ni * cb + ci) * t;
                          if (first)
                            for (std::size_t ti = 0; ti < t; ++ti) row[ti] = g;
                          else
                            for (std::size_t ti = 0; ti < t; ++ti)
                              row[ti] += g;
                        }
                    };
                  });
    return true;
  }

  bool bwd_time_slice(const OpRecord& r, ValueId gy) {
    const std::size_t nb = r.result->value.dim(0);
    const std::size_t cb = r.result->value.dim(1);
    const std::size_t tt = r.in[0]->value.dim(2);
    const std::size_t t = r.a;
    EmitSpec spec;
    spec.inputs.push_back(gy);
    // Sparse scatter: untouched positions must read as eager's zeros.
    emit_accum_contrib("bwd_time_slice", r.in[0], std::move(spec),
                       nb * cb * tt, [gy, nb, cb, tt, t](const Resolver& rv) {
                         auto gp = rv.cptr(gy);
                         return [=](const ExecContext& c, float* d) {
                           const float* gv = gp(c);
                           for (std::size_t ni = 0; ni < nb; ++ni)
                             for (std::size_t ci = 0; ci < cb; ++ci)
                               d[(ni * cb + ci) * tt + t] = gv[ni * cb + ci];
                         };
                       });
    return true;
  }

  bool bwd_time_reverse(const OpRecord& r, ValueId gy) {
    const std::size_t rows = r.in[0]->value.dim(0) * r.in[0]->value.dim(1);
    const std::size_t t = r.in[0]->value.dim(2);
    EmitSpec spec;
    spec.name = "bwd_time_reverse";
    spec.inputs.push_back(gy);
    ValueId slot = 0;
    const bool first = begin_contrib(r.in[0], spec, &slot);
    builder_.emit(std::move(spec),
                  [gy, slot, first, rows, t](const Resolver& rv) -> Operation {
                    auto gp = rv.cptr(gy);
                    auto dp = rv.ptr(slot);
                    return [=](const ExecContext& c) {
                      const float* gv = gp(c);
                      float* o = dp(c);
                      for (std::size_t rr = 0; rr < rows; ++rr) {
                        const float* src = gv + rr * t;
                        float* dst = o + rr * t;
                        if (first)
                          for (std::size_t ti = 0; ti < t; ++ti)
                            dst[ti] = src[t - 1 - ti];
                        else
                          for (std::size_t ti = 0; ti < t; ++ti)
                            dst[ti] += src[t - 1 - ti];
                      }
                    };
                  });
    return true;
  }

  bool bwd_concat_cols(const OpRecord& r, ValueId gy) {
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t fa = r.in[0]->value.dim(1);
    const std::size_t fb = r.in[1]->value.dim(1);
    for (int side = 0; side < 2; ++side) {
      const NodePtr& parent = side == 0 ? r.in[0] : r.in[1];
      if (!parent->requires_grad) continue;
      const std::size_t fp = side == 0 ? fa : fb;
      const std::size_t col0 = side == 0 ? 0 : fa;
      EmitSpec spec;
      spec.name = "bwd_concat_cols";
      spec.inputs.push_back(gy);
      ValueId slot = 0;
      const bool first = begin_contrib(parent, spec, &slot);
      builder_.emit(
          std::move(spec),
          [gy, slot, first, n, fa, fb, fp, col0](const Resolver& rv) -> Operation {
            auto gp = rv.cptr(gy);
            auto dp = rv.ptr(slot);
            return [=](const ExecContext& c) {
              const float* gv = gp(c);
              float* o = dp(c);
              for (std::size_t i = 0; i < n; ++i) {
                const float* src = gv + i * (fa + fb) + col0;
                float* dst = o + i * fp;
                if (first)
                  for (std::size_t j = 0; j < fp; ++j) dst[j] = src[j];
                else
                  for (std::size_t j = 0; j < fp; ++j) dst[j] += src[j];
              }
            };
          });
    }
    return true;
  }

  bool bwd_slice_cols(const OpRecord& r, ValueId gy) {
    const std::size_t n = r.in[0]->value.dim(0);
    const std::size_t f = r.in[0]->value.dim(1);
    const std::size_t start = r.a, count = r.b;
    EmitSpec spec;
    spec.inputs.push_back(gy);
    // Scatter into [start, start+count): the rest must be eager's zeros.
    emit_accum_contrib("bwd_slice_cols", r.in[0], std::move(spec), n * f,
                       [gy, n, f, start, count](const Resolver& rv) {
                         auto gp = rv.cptr(gy);
                         return [=](const ExecContext& c, float* d) {
                           const float* gv = gp(c);
                           for (std::size_t i = 0; i < n; ++i)
                             std::copy_n(gv + i * count, count,
                                         d + i * f + start);
                         };
                       });
    return true;
  }

  bool bwd_loss(const OpRecord& r) {
    SrcRef p;
    if (!resolve(r.in[0], &p)) return false;
    const std::size_t n = r.in[0]->value.size();
    const OpKind kind = r.kind;
    const float tau = r.scalar;
    // backward() seeds the loss gradient with exactly 1.0f, so the per-
    // element factor is a capture-time constant (1.0f * 2.0f == 2.0f).
    const float g = kind == OpKind::kMseLoss
                        ? 2.0f / static_cast<float>(n)
                        : 1.0f / static_cast<float>(n);
    EmitSpec spec;
    spec.name = "bwd_loss";
    add_in(spec, p);
    spec.inputs.push_back(target_);
    ValueId slot = 0;
    const bool first = begin_contrib(r.in[0], spec, &slot);
    builder_.emit(
        std::move(spec),
        [p, tgt = target_, slot, first, n, kind, tau,
         g](const Resolver& rv) -> Operation {
          auto pp = bind_src(rv, p);
          auto tp = rv.cptr(tgt);
          auto dp = rv.ptr(slot);
          return [=](const ExecContext& c) {
            const float* pv = pp(c);
            const float* tv = tp(c);
            float* o = dp(c);
            for (std::size_t i = 0; i < n; ++i) {
              float e;
              if (kind == OpKind::kMseLoss) {
                e = g * (pv[i] - tv[i]);
              } else if (kind == OpKind::kMaeLoss) {
                const float dd = pv[i] - tv[i];
                e = dd > 0.0f ? g : (dd < 0.0f ? -g : 0.0f);
              } else {
                const float diff = tv[i] - pv[i];
                e = diff > 0.0f ? -tau * g
                                : (diff < 0.0f ? (1.0f - tau) * g : 0.0f);
              }
              if (first)
                o[i] = e;
              else
                o[i] += e;
            }
          };
        });
    return true;
  }

  const TapeTrace& trace_;
  NodePtr input_;
  NodePtr output_;  ///< the training loss, or the forward-only result
  bool forward_only_ = false;
  GraphBuilder builder_;
  std::shared_ptr<PackRegistry> preg_;
  std::size_t target_floats_ = 0;
  ValueId target_ = 0;
  bool output_emitted_ = false;
  std::unordered_map<const Node*, ValueId> val_;
  std::unordered_map<const Node*, const OpRecord*> rec_of_;
  std::unordered_map<const Node*, ValueId> norms_of_;
  std::unordered_map<const Node*, ValueId> mask_of_;
  std::unordered_set<const Node*> folded_;
  std::unordered_map<const Node*, GSlot> gslot_;
  std::unordered_map<ValueId, std::size_t> floats_;
  std::map<std::pair<const Node*, bool>, std::size_t> pack_idx_;
  std::map<std::array<std::size_t, 6>, ValueId> patches_of_;
  std::unordered_map<ValueId, ValueId> dyg_of_;
};

/// The PlannedStep implementation behind make_planned_step. One instance per
/// fit() call; shape-keyed program cache with weights_version invalidation.
/// Replay is single-threaded (the trainer's batch loop): the pack registry
/// and any captured dropout RNG streams are mutated in place.
class TrainStep final : public opt::PlannedStep {
 public:
  TrainStep(nn::Module& model, opt::ForwardFn forward, opt::Adam& adam,
            const opt::TrainOptions& options)
      : model_(model),
        forward_(std::move(forward)),
        adam_(adam),
        params_(adam.params()),
        loss_(options.loss),
        tau_(options.pinball_tau),
        clip_norm_(options.clip_norm),
        version_(model.weights_version()),
        slab_(adam.slab_floats(), 0.0f) {}

  bool step(Tensor x, const Tensor& y, float* loss_out) override {
    if (!planning_enabled()) return false;
    if (x.rank() != 3) return false;
    // One invalidation mechanism for every out-of-plan weight mutation:
    // best-epoch restore, checkpoint load and hot-swap all bump the model's
    // weights version, which drops every cached program (and with it the
    // prepacked operands and the captured RNG stream structure).
    const std::uint64_t v = model_.weights_version();
    if (v != version_) {
      programs_.clear();
      version_ = v;
    }
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
    // RPTCN_PLAN_PROFILE=1 buckets replay time by step name on stderr every
    // 40 replays — this is how the relu-backward branch storm and the
    // duplicated im2col passes were found; kept for the next hunt.
    static const bool prof = std::getenv("RPTCN_PLAN_PROFILE") != nullptr;
    if (prof) {
      static auto* acc =
          new std::map<std::string, std::pair<double, std::size_t>>();
      for (const TensorOp& s : prog.steps()) {
        const auto t0 = std::chrono::steady_clock::now();
        s.op(ctx);
        const auto t1 = std::chrono::steady_clock::now();
        auto& e = (*acc)[s.name];
        e.first += std::chrono::duration<double, std::micro>(t1 - t0).count();
        e.second += 1;
      }
      static std::size_t runs = 0;
      if (++runs % 40 == 0) {
        double total = 0.0;
        for (const auto& kv : *acc) total += kv.second.first;
        std::fprintf(stderr, "[plan-profile] %zu replays, total %.1f us\n",
                     runs, total);
        for (const auto& kv : *acc)
          std::fprintf(stderr, "  %-18s %10.1f us  %6zu calls  %5.1f%%\n",
                       kv.first.c_str(), kv.second.first, kv.second.second,
                       100.0 * kv.second.first / total);
      }
    } else {
      for (const TensorOp& s : prog.steps()) s.op(ctx);
    }
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

    std::shared_ptr<const Executable> prog =
        Compiler(trace, xv.node(), loss.node(), params_, adam_.offsets(),
                 y.size())
            .run();
    bool ok = prog != nullptr;
    if (ok) {
      // Rewind each distinct dropout stream to its pre-probe state; the
      // replay then re-draws the identical mask sequence and leaves the
      // streams exactly where the probe left them.
      std::vector<std::pair<Rng*, Rng>> streams;
      for (const ag::trace::OpRecord& r : trace.ops) {
        if (r.rng == nullptr) continue;
        bool seen = false;
        for (const auto& s : streams)
          if (s.first == r.rng) {
            seen = true;
            break;
          }
        if (!seen) streams.emplace_back(r.rng, r.rng_before);
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

  nn::Module& model_;
  opt::ForwardFn forward_;
  opt::Adam& adam_;
  std::vector<Variable> params_;
  opt::Loss loss_;
  float tau_;
  float clip_norm_;
  std::uint64_t version_;
  std::map<std::array<std::size_t, 3>, std::shared_ptr<const Executable>>
      programs_;
  std::vector<float> slab_;
};

}  // namespace

std::shared_ptr<const Executable> compile_forward(const opt::ForwardFn& forward,
                                                  const Tensor& probe) {
  NoGradScope no_grad;
  ag::trace::TapeTrace trace;
  const Variable xv(probe);
  Variable out;
  {
    ag::trace::Recording rec(&trace);
    out = forward(xv);
  }
  if (!out.defined()) return nullptr;
  std::shared_ptr<const Executable> exec =
      Compiler(trace, xv.node(), out.node()).run();
  if (exec == nullptr) return nullptr;
  // Verify on the probe itself. Stepping by hand rather than through
  // Executable::run keeps the check out of the graph/replays counter.
  const Tensor& ref = out.value();
  Tensor replay(ref.shape());
  pool::Scratch arena(exec->arena_floats());
  const ExecContext ctx{probe.raw(), replay.raw(), arena.data()};
  for (const TensorOp& s : exec->steps()) s.op(ctx);
  if (std::memcmp(replay.raw(), ref.raw(), ref.size() * sizeof(float)) != 0)
    return nullptr;
  return exec;
}

std::shared_ptr<opt::PlannedStep> make_planned_step(
    nn::Module& model, const opt::ForwardFn& forward, opt::Optimizer& optimizer,
    const opt::TrainOptions& options) {
  if (!planning_enabled()) return nullptr;
  auto* adam = dynamic_cast<opt::Adam*>(&optimizer);
  if (adam == nullptr) return nullptr;
  // The slab layout and the clip-norm reduction both follow the optimizer's
  // parameter order; require it to be exactly the model's so an eager clip
  // over model.parameters() and a slab clip agree bit-for-bit.
  const std::vector<Variable> model_params = model.parameters();
  const std::vector<Variable>& opt_params = adam->params();
  if (model_params.size() != opt_params.size()) return nullptr;
  for (std::size_t i = 0; i < model_params.size(); ++i)
    if (model_params[i].node() != opt_params[i].node()) return nullptr;
  return std::make_shared<TrainStep>(model, forward, *adam, options);
}

}  // namespace rptcn::graph
