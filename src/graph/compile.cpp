// The tape compiler: emits a TapeTrace as a flat TensorOp program.
//
// Every record becomes its op-table entry (autograd/op_table.h): one
// generic forward emitter binds an entry's forward kernel to planned
// buffers, and one generic backward emitter binds each operand's backward
// kernel to its gradient slot. Nothing here re-implements an op's
// arithmetic. conv1d and linear keep a plan-time lowering that runs the
// same table kernels on shared operands: weight prepacks, one im2col patch
// matrix per conv input, one gathered dy per conv gradient.
//
// Gradient slots follow the tape's first-write/accumulate discipline
// (op_table.h). A lowering changes only where a kernel's operands come
// from, never a summation order: the GEMM reduces every output in one
// shape-independent order, so a replay matches the tape it replaced.
#include "graph/compile.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "autograd/op_table.h"
#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace rptcn::graph {
namespace {

using ag::trace::OpKind;
using ag::trace::OpRecord;
using ag::trace::TapeTrace;
using autograd::Node;
using NodePtr = std::shared_ptr<autograd::Node>;
namespace op = ag::op;

/// Weight operands prepacked for the blocked GEMM. In a training program
/// pack steps refresh them from the live parameters at the top of every
/// replay: in-plan Adam updates mutate the weights each step, so a pack is
/// never reused ACROSS steps — the win is reuse WITHIN one step (the LSTM
/// gate weights are consumed once per timestep forward and once per
/// timestep in backward-dX; 2T GEMMs share one pack pass).
struct PackRegistry {
  std::vector<rptcn::PackedB> packs;
};

/// Capture-time reference to one kernel buffer: a planned value, a baked
/// node (parameter, constant, folded result), or nothing. Baked reads go
/// through the node every replay, so Adam's in-place parameter updates (and
/// checkpoint restores that keep the same nodes) are picked up.
struct SrcRef {
  bool is_val = false;
  ValueId id = 0;
  NodePtr baked;

  bool present() const { return is_val || baked != nullptr; }
  static SrcRef value(ValueId v) {
    SrcRef s;
    s.is_val = true;
    s.id = v;
    return s;
  }
};

using CSrc = std::function<const float*(const ExecContext&)>;
using Dst = std::function<float*(const ExecContext&)>;

CSrc bind_src(const Resolver& rv, const SrcRef& s) {
  if (s.is_val) return rv.cptr(s.id);
  return [n = s.baked](const ExecContext&) { return n->value.raw(); };
}

/// The buffers of one kernel call at capture time (op::Bufs before
/// binding), and which of them the kernel reads.
struct Srcs {
  std::array<SrcRef, 3> in;
  SrcRef out;  ///< the forward result (backward only)
  SrcRef gy;   ///< the result's gradient (backward only)
  bool has_saved = false;
  ValueId saved = 0;
  unsigned reads = 0;  ///< op::Read bits

  bool reads_bit(unsigned bit) const { return (reads & bit) != 0; }
  const SrcRef* read(std::size_t i) const {
    return reads_bit(op::kIn0 << i) && in[i].present() ? &in[i] : nullptr;
  }

  /// Planned values the kernel reads (extends their liveness).
  void add_inputs(EmitSpec& spec) const {
    const auto add = [&spec](const SrcRef* s) {
      if (s != nullptr && s->is_val) spec.inputs.push_back(s->id);
    };
    for (std::size_t i = 0; i < 3; ++i) add(read(i));
    if (reads_bit(op::kOut)) add(&out);
    if (reads_bit(op::kGy)) add(&gy);
    if (reads_bit(op::kSaved) && has_saved) spec.inputs.push_back(saved);
  }
};

/// Srcs bound to planned offsets: builds the op::Bufs of one replay.
class Bound {
 public:
  Bound(const Resolver& rv, const Srcs& s) {
    for (std::size_t i = 0; i < 3; ++i)
      if (const SrcRef* r = s.read(i)) in_[i] = bind_src(rv, *r);
    if (s.reads_bit(op::kOut)) out_ = bind_src(rv, s.out);
    if (s.reads_bit(op::kGy)) gy_ = bind_src(rv, s.gy);
    if (s.has_saved) saved_ = rv.ptr(s.saved);
  }

  op::Bufs operator()(const ExecContext& c) const {
    op::Bufs b;
    for (std::size_t i = 0; i < 3; ++i)
      if (in_[i]) b.in[i] = in_[i](c);
    if (out_) b.out = out_(c);
    if (gy_) b.gy = gy_(c);
    if (saved_) b.saved = saved_(c);
    return b;
  }

 private:
  std::array<CSrc, 3> in_;
  CSrc out_, gy_;
  Dst saved_;
};

using ForwardFn = std::function<void(const op::Geom&, const op::Bufs&, float*)>;
using GradFn =
    std::function<void(const op::Geom&, const op::Bufs&, float*, bool)>;

op::Geom geom_of(const OpRecord& r) {
  op::Geom g;
  g.attrs = r.attrs;
  for (std::size_t i = 0; i < 3; ++i)
    if (r.in[i] != nullptr) g.in[i] = r.in[i]->value.shape();
  g.out = r.result->value.shape();
  return g;
}

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
      gslot_.emplace(pn, GSlot{id, false});
    }
    // backward() seeds the loss gradient with one.
    seed_ = std::make_shared<Node>();
    seed_->value = Tensor::ones({1});
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
    if (!forward_only_ &&
        (trace_.ops.empty() || trace_.backward_order.empty()))
      return nullptr;
    for (const OpRecord& r : trace_.ops)
      if (!emit_forward(r)) return nullptr;
    if (!output_emitted_) return nullptr;
    if (forward_only_) return builder_.finish();
    for (Node* n : trace_.backward_order)
      if (!emit_backward(n)) return nullptr;
    // Parameters the probe never touched keep an all-zero gradient (the
    // tape's lazily-materialised zeros); the slab must say the same.
    for (const auto& [pn, slot] : gslot_) {
      if (slot.written) continue;
      EmitSpec spec;
      spec.name = "zero_grad";
      spec.outputs.push_back(slot.id);
      builder_.emit(std::move(spec),
                    [id = slot.id, sz = pn->value.size()](
                        const Resolver& rv) -> Operation {
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

  bool resolve(const NodePtr& n, SrcRef* out) {
    auto it = val_.find(n.get());
    if (it != val_.end()) {
      *out = SrcRef::value(it->second);
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

  /// The operands of r's entry. A loss's operand 1 is the program target.
  bool resolve_operands(const OpRecord& r, const op::Entry& e, Srcs* s) {
    for (std::size_t i = 0; i < e.arity; ++i) {
      if (r.in[i] == nullptr) continue;
      if (e.loss && i == 1)
        s->in[i] = SrcRef::value(target_);
      else if (!resolve(r.in[i], &s->in[i]))
        return false;
    }
    return true;
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

  /// Register a gradient contribution to n's slot on `spec` and return
  /// whether it is the first (direct write) or a later one (accumulate).
  bool begin_contrib(const NodePtr& n, EmitSpec& spec, ValueId* slot) {
    auto it = gslot_.find(n.get());
    if (it == gslot_.end())
      it = gslot_.emplace(n.get(), GSlot{builder_.value(n->value.size()),
                                         false})
               .first;
    const bool first = !it->second.written;
    it->second.written = true;
    if (!first) spec.inputs.push_back(it->second.id);
    spec.outputs.push_back(it->second.id);
    *slot = it->second.id;
    return first;
  }

  /// Prepack op(B) of a baked weight; returns the registry index. Keyed by
  /// (node, trans_b) so forward (W^T) and backward-dX (W) each get one pack
  /// shared across every GEMM site that uses it.
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

  /// The im2col patch matrix of conv input x, built once per program and
  /// shared by the forward GEMM and the backward-dW GEMM.
  ValueId ensure_patches(const SrcRef& x, const op::Geom& g) {
    const std::array<std::size_t, 6> key{
        static_cast<std::size_t>(x.is_val),
        x.is_val ? static_cast<std::size_t>(x.id)
                 : reinterpret_cast<std::size_t>(x.baked.get()),
        g.in[1][2], g.attrs.dilation, g.attrs.pad, g.out[2]};
    auto it = patches_of_.find(key);
    if (it != patches_of_.end()) return it->second;
    const ValueId pid =
        builder_.value(g.in[0][1] * g.in[1][2] * g.in[0][0] * g.out[2]);
    EmitSpec spec;
    spec.name = "im2col";
    if (x.is_val) spec.inputs.push_back(x.id);
    spec.outputs.push_back(pid);
    builder_.emit(std::move(spec), [x, pid, g](const Resolver& rv) -> Operation {
      auto xp = bind_src(rv, x);
      auto pp = rv.ptr(pid);
      return [=](const ExecContext& c) { op::conv1d_patches(g, xp(c), pp(c)); };
    });
    patches_of_.emplace(key, pid);
    return pid;
  }

  /// A conv gradient gathered into the GEMM layout, built once per program
  /// and shared by the dX and dW GEMMs.
  ValueId ensure_gathered_dy(ValueId gy, const op::Geom& g) {
    auto it = dyg_of_.find(gy);
    if (it != dyg_of_.end()) return it->second;
    const ValueId did = builder_.value(g.out[0] * g.out[1] * g.out[2]);
    EmitSpec spec;
    spec.name = "gather_dy";
    spec.inputs.push_back(gy);
    spec.outputs.push_back(did);
    builder_.emit(std::move(spec), [gy, did, g](const Resolver& rv) -> Operation {
      auto gp = rv.cptr(gy);
      auto dp = rv.ptr(did);
      return [=](const ExecContext& c) {
        op::conv1d_gather_dy(g, gp(c), dp(c));
      };
    });
    dyg_of_.emplace(gy, did);
    return did;
  }

  // -- forward ---------------------------------------------------------------------

  bool emit_forward(const OpRecord& r) {
    const op::Entry& e = op::entry(r.kind);
    Node* res = r.result.get();
    const bool is_output = res == output_.get();
    if (forward_only_) {
      // A training-mode forward (live dropout draws) or a loss: not servable.
      if (e.loss || r.attrs.rng != nullptr) return false;
      if (foldable(r)) {
        if (is_output) return false;  // an input-independent output
        folded_.insert(res);
        return true;
      }
    } else if (e.loss != is_output) {
      return false;  // a loss that is not THE loss, or an output that is none
    }
    Srcs s;
    if (!resolve_operands(r, e, &s)) return false;
    if (e.loss && target_floats_ != r.in[0]->value.size()) return false;
    const op::Geom g = geom_of(r);
    const ValueId out =
        is_output ? builder_.output_value() : builder_.value(res->value.size());
    if (e.saved != nullptr) {
      s.has_saved = true;
      s.saved = builder_.value(e.saved(g));
      saved_of_[res] = s.saved;
    }
    s.reads = op::kIn0 | op::kIn1 | op::kIn2;
    ForwardFn fn = e.forward;
    if (r.kind == OpKind::kConv1d) lower_conv1d(g, &s, &fn);
    if (r.kind == OpKind::kLinear) lower_linear(g, s, &fn);

    EmitSpec spec;
    spec.name = e.name;
    s.add_inputs(spec);
    spec.outputs.push_back(out);
    if (s.has_saved) spec.outputs.push_back(s.saved);
    builder_.emit(std::move(spec),
                  [s, g, fn, out](const Resolver& rv) -> Operation {
                    const Bound bufs(rv, s);
                    auto yp = rv.ptr(out);
                    return [=](const ExecContext& c) { fn(g, bufs(c), yp(c)); };
                  });
    if (is_output) output_emitted_ = true;
    val_[res] = out;
    rec_of_[res] = &r;
    return true;
  }

  /// When one chunk covers the batch, the patch matrix becomes its own step;
  /// the backward-dW GEMM reuses it instead of re-running im2col over the
  /// same x. Otherwise the entry's chunked kernel runs as is.
  void lower_conv1d(const op::Geom& g, Srcs* s, ForwardFn* fn) {
    if (!op::conv1d_single_chunk(g)) return;
    s->in[0] = SrcRef::value(ensure_patches(s->in[0], g));
    *fn = [](const op::Geom& gg, const op::Bufs& b, float* y) {
      op::conv1d_forward_patches(gg, b.in[0], b.in[1], b.in[2], y);
    };
  }

  /// y = x·Wᵀ: prepack a baked W where the shape takes the blocked GEMM
  /// path, which packs B on every call. Both GEMM paths round alike, so
  /// this is a cost choice: the small path packs nothing to save.
  void lower_linear(const op::Geom& g, const Srcs& s, ForwardFn* fn) {
    const std::size_t m = g.in[0][0], in_f = g.in[1][1], out_f = g.in[1][0];
    if (s.in[1].is_val || !rptcn::gemm_uses_blocked(m, out_f, in_f)) return;
    const std::size_t pidx =
        ensure_pack(s.in[1].baked, /*trans_b=*/true, in_f, in_f, out_f);
    *fn = [preg = preg_, pidx](const op::Geom& gg, const op::Bufs& b,
                               float* y) {
      op::linear_forward(gg, b, y, &preg->packs[pidx]);
    };
  }

  // -- backward --------------------------------------------------------------------

  bool emit_backward(Node* n) {
    auto rit = rec_of_.find(n);
    if (rit == rec_of_.end()) return false;  // unrecorded closure fired
    const OpRecord& r = *rit->second;
    const op::Entry& e = op::entry(r.kind);
    Srcs base;
    if (n == output_.get()) {
      base.gy.baked = seed_;
    } else {
      auto git = gslot_.find(n);
      if (git == gslot_.end() || !git->second.written) return false;
      base.gy = SrcRef::value(git->second.id);
    }
    if (!resolve_operands(r, e, &base)) return false;
    base.out = SrcRef::value(val_.at(n));
    if (auto sit = saved_of_.find(n); sit != saved_of_.end()) {
      base.has_saved = true;
      base.saved = sit->second;
    }
    const op::Geom g = geom_of(r);
    for (std::size_t i = 0; i < e.arity; ++i) {
      const op::Grad& grad = e.grad[i];
      if (r.in[i] == nullptr || !r.in[i]->requires_grad ||
          grad.kernel == nullptr)
        continue;
      Srcs s = base;
      s.reads = grad.reads;
      GradFn fn = grad.kernel;
      if (r.kind == OpKind::kConv1d && i < 2) lower_conv1d_grad(i, g, &s, &fn);
      if (r.kind == OpKind::kLinear && i == 0) lower_linear_dx(g, s, &fn);
      emit_contrib(std::string("bwd_") + e.name + "_" + std::to_string(i),
                   r.in[i], g, s, grad.accumulates, std::move(fn));
    }
    return true;
  }

  /// One gradient contribution to parent's slot. The first writes and later
  /// ones add; a kernel that adds into a zero-filled destination gets the
  /// zeroed slot first, and later a zeroed scratch value plus one full add —
  /// the planned twin of the tape's Tensor::zeros + Node::accumulate.
  void emit_contrib(std::string name, const NodePtr& parent,
                    const op::Geom& g, const Srcs& s, bool accumulates,
                    GradFn fn) {
    EmitSpec spec;
    spec.name = std::move(name);
    s.add_inputs(spec);
    ValueId slot = 0;
    const bool first = begin_contrib(parent, spec, &slot);
    const std::size_t floats = parent->value.size();
    ValueId dst = slot;
    if (accumulates && !first) {
      dst = builder_.value(floats);
      spec.scratch.push_back(dst);
    }
    builder_.emit(
        std::move(spec),
        [s, g, fn = std::move(fn), slot, dst, first, accumulates,
         floats](const Resolver& rv) -> Operation {
          const Bound bufs(rv, s);
          auto dp = rv.ptr(dst);
          if (!accumulates)
            return [=](const ExecContext& c) {
              fn(g, bufs(c), dp(c), !first);
            };
          auto sp = rv.ptr(slot);
          return [=](const ExecContext& c) {
            float* d = dp(c);
            std::fill_n(d, floats, 0.0f);
            fn(g, bufs(c), d, false);
            if (!first) {
              float* acc = sp(c);
              for (std::size_t i = 0; i < floats; ++i) acc[i] += d[i];
            }
          };
        });
  }

  /// When one chunk covers the batch, dX and dW share a single dy gather,
  /// and dW reuses the patch matrix the forward already built from this x.
  void lower_conv1d_grad(std::size_t i, const op::Geom& g, Srcs* s,
                         GradFn* fn) {
    if (!op::conv1d_single_chunk(g)) return;
    s->gy = SrcRef::value(ensure_gathered_dy(s->gy.id, g));
    if (i == 0) {
      *fn = [](const op::Geom& gg, const op::Bufs& b, float* d, bool) {
        op::conv1d_dx_gathered(gg, b.gy, b.in[1], d);
      };
    } else {
      s->in[0] = SrcRef::value(ensure_patches(s->in[0], g));
      *fn = [](const op::Geom& gg, const op::Bufs& b, float* d, bool) {
        op::conv1d_dw_patches(gg, b.gy, b.in[0], d);
      };
    }
  }

  /// dx = dy·W — the second weight-side GEMM worth a shared pack.
  void lower_linear_dx(const op::Geom& g, const Srcs& s, GradFn* fn) {
    const std::size_t m = g.in[0][0], in_f = g.in[1][1], out_f = g.in[1][0];
    if (s.in[1].is_val || !rptcn::gemm_uses_blocked(m, in_f, out_f)) return;
    const std::size_t pidx =
        ensure_pack(s.in[1].baked, /*trans_b=*/false, in_f, out_f, in_f);
    *fn = [preg = preg_, pidx](const op::Geom& gg, const op::Bufs& b, float* d,
                               bool) {
      op::linear_dx(gg, b, d, &preg->packs[pidx]);
    };
  }

  const TapeTrace& trace_;
  NodePtr input_;
  NodePtr output_;  ///< the training loss, or the forward-only result
  bool forward_only_ = false;
  GraphBuilder builder_;
  std::shared_ptr<PackRegistry> preg_;
  std::size_t target_floats_ = 0;
  ValueId target_ = 0;
  NodePtr seed_;
  bool output_emitted_ = false;
  std::unordered_map<const Node*, ValueId> val_;
  std::unordered_map<const Node*, const OpRecord*> rec_of_;
  std::unordered_map<const Node*, ValueId> saved_of_;
  std::unordered_set<const Node*> folded_;
  std::unordered_map<const Node*, GSlot> gslot_;
  std::map<std::pair<const Node*, bool>, std::size_t> pack_idx_;
  std::map<std::array<std::size_t, 6>, ValueId> patches_of_;
  std::unordered_map<ValueId, ValueId> dyg_of_;
};

}  // namespace

std::shared_ptr<const Executable> compile_step_trace(
    const TapeTrace& trace, NodePtr input, NodePtr loss,
    const std::vector<Variable>& params,
    const std::vector<std::size_t>& offsets, std::size_t target_floats) {
  return Compiler(trace, std::move(input), std::move(loss), params, offsets,
                  target_floats)
      .run();
}

std::shared_ptr<const Executable> compile_forward_trace(const TapeTrace& trace,
                                                        NodePtr input,
                                                        NodePtr output) {
  return Compiler(trace, std::move(input), std::move(output)).run();
}

}  // namespace rptcn::graph
