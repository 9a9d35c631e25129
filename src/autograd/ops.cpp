#include "autograd/ops.h"

#include "autograd/op_table.h"
#include "autograd/trace.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace rptcn::ag {

namespace {

using autograd::Node;
using NodePtr = std::shared_ptr<Node>;

/// Build a graph node. If gradients are globally disabled or no parent
/// requires them, the result is a detached leaf and `make_backward` is not
/// invoked (saved tensors for backward are never captured).
template <typename MakeBackward>
Variable make_node(Tensor value, std::vector<Variable> parents,
                   const char* op_name, MakeBackward&& make_backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op = op_name;
  bool needs_grad = false;
  if (autograd::grad_enabled()) {
    for (const auto& p : parents)
      if (p.defined() && p.requires_grad()) needs_grad = true;
  }
  if (needs_grad) {
    node->requires_grad = true;
    for (const auto& p : parents)
      if (p.defined()) node->parents.push_back(p.node());
    node->backward_fn = make_backward();
  }
  return Variable(std::move(node));
}

void check_defined(const Variable& v, const char* op) {
  RPTCN_CHECK(v.defined(), op << ": undefined operand");
}

using Operands = std::array<const Variable*, 3>;

/// One operand's contribution to n's gradient through the table: the first
/// writes, later ones add. A kernel that adds into a zero-filled destination
/// gets a zeroed temporary for a later contribution, then one full add.
void contribute(Node& n, const op::Grad& grad, const op::Geom& g,
                const op::Bufs& b) {
  if (!n.grad_initialized) {
    n.grad = Tensor(n.value.shape());
    grad.kernel(g, b, n.grad.raw(), false);
    n.grad_initialized = true;
  } else if (grad.accumulates) {
    Tensor part(n.value.shape());
    grad.kernel(g, b, part.raw(), false);
    add_inplace(n.grad, part);
  } else {
    grad.kernel(g, b, n.grad.raw(), true);
  }
}

/// Runs `kind`'s entry on defined operands: checks shapes, allocates the
/// result (and the saved buffer) and calls the forward kernel.
struct Forward {
  op::Geom geom;
  Tensor out;
  Tensor saved;
};

Forward run_forward(const op::Entry& e, const std::array<const Tensor*, 3>& in,
                    const trace::Attrs& attrs) {
  Forward f;
  f.geom.attrs = attrs;
  op::Bufs b;
  for (std::size_t i = 0; i < e.arity; ++i) {
    if (in[i] == nullptr) continue;
    f.geom.in[i] = in[i]->shape();
    b.in[i] = in[i]->raw();
  }
  f.geom.out = e.shape(f.geom);
  f.out = Tensor(f.geom.out);
  if (e.saved != nullptr) {
    f.saved = Tensor({e.saved(f.geom)});
    b.saved = f.saved.raw();
  }
  e.forward(f.geom, b, f.out.raw());
  return f;
}

/// The eager tape's view of an op-table entry: forward now, a backward
/// closure over the same entry, and a trace record when one is active.
Variable apply(trace::OpKind kind, const Operands& ins,
               const trace::Attrs& attrs = {}) {
  const op::Entry& e = op::entry(kind);
  std::array<const Tensor*, 3> values{};
  std::array<NodePtr, 3> nodes{};
  std::vector<Variable> parents;
  for (std::size_t i = 0; i < e.arity; ++i) {
    if (ins[i] == nullptr || !ins[i]->defined()) continue;
    values[i] = &ins[i]->value();
    nodes[i] = ins[i]->node();
    parents.push_back(*ins[i]);
  }
  const bool tracing = trace::active();
  Rng rng_before{0};
  if (tracing && attrs.rng != nullptr) rng_before = *attrs.rng;
  Forward f = run_forward(e, values, attrs);
  Variable result = make_node(
      std::move(f.out), std::move(parents), e.name,
      [&e, &f, &nodes] {
        return [&e, g = std::move(f.geom), saved = std::move(f.saved),
                in = nodes](Node& self) mutable {
          op::Bufs b;
          for (std::size_t i = 0; i < e.arity; ++i)
            if (in[i] != nullptr) b.in[i] = in[i]->value.raw();
          b.out = self.value.raw();
          b.gy = self.grad.raw();
          b.saved = saved.raw();
          for (std::size_t i = 0; i < e.arity; ++i)
            if (in[i] != nullptr && in[i]->requires_grad &&
                e.grad[i].kernel != nullptr)
              contribute(*in[i], e.grad[i], g, b);
        };
      });
  if (tracing) {
    trace::OpRecord r;
    r.kind = kind;
    r.result = result.node();
    r.in = nodes;
    r.attrs = attrs;
    r.rng_before = rng_before;
    trace::record(std::move(r));
  }
  return result;
}

/// A loss against a constant target: the target rides as operand 1.
Variable apply_loss(trace::OpKind kind, const Variable& pred,
                    const Tensor& target, const trace::Attrs& attrs = {}) {
  check_defined(pred, op::entry(kind).name);
  const Variable t(target);
  return apply(kind, {&pred, &t, nullptr}, attrs);
}

}  // namespace

// ---------------------------------------------------------------------------
// traced ops: thin wrappers over their op-table entries
// ---------------------------------------------------------------------------

Variable add(const Variable& a, const Variable& b) {
  check_defined(a, "add");
  check_defined(b, "add");
  return apply(trace::OpKind::kAdd, {&a, &b, nullptr});
}

Variable mul(const Variable& a, const Variable& b) {
  check_defined(a, "mul");
  check_defined(b, "mul");
  return apply(trace::OpKind::kMul, {&a, &b, nullptr});
}

Variable linear(const Variable& x, const Variable& w, const Variable& b) {
  check_defined(x, "linear");
  check_defined(w, "linear");
  return apply(trace::OpKind::kLinear, {&x, &w, &b});
}

Variable relu(const Variable& a) {
  check_defined(a, "relu");
  return apply(trace::OpKind::kRelu, {&a, nullptr, nullptr});
}

Variable sigmoid(const Variable& a) {
  check_defined(a, "sigmoid");
  return apply(trace::OpKind::kSigmoid, {&a, nullptr, nullptr});
}

Variable tanh_v(const Variable& a) {
  check_defined(a, "tanh");
  return apply(trace::OpKind::kTanh, {&a, nullptr, nullptr});
}

namespace {
trace::Attrs conv1d_attrs(const Tensor& w, std::size_t dilation,
                          std::ptrdiff_t left_pad) {
  trace::Attrs attrs;
  attrs.dilation = dilation;
  // A malformed weight fails the entry's shape rule, not this lookup.
  const std::size_t k = w.rank() == 3 ? w.dim(2) : 1;
  attrs.pad = left_pad < 0 ? (k - 1) * dilation
                           : static_cast<std::size_t>(left_pad);
  return attrs;
}
}  // namespace

Variable conv1d(const Variable& x, const Variable& w, const Variable& b,
                std::size_t dilation, std::ptrdiff_t left_pad) {
  check_defined(x, "conv1d");
  check_defined(w, "conv1d");
  return apply(trace::OpKind::kConv1d, {&x, &w, &b},
               conv1d_attrs(w.value(), dilation, left_pad));
}

Tensor fwd::conv1d(const Tensor& x, const Tensor& w, const Tensor* b,
                   std::size_t dilation, std::ptrdiff_t left_pad) {
  return run_forward(op::entry(trace::OpKind::kConv1d), {&x, &w, b},
                     conv1d_attrs(w, dilation, left_pad))
      .out;
}

Variable weight_norm(const Variable& v, const Variable& g) {
  check_defined(v, "weight_norm");
  check_defined(g, "weight_norm");
  return apply(trace::OpKind::kWeightNorm, {&v, &g, nullptr});
}

Variable dropout(const Variable& x, float p, Rng& rng, bool training) {
  check_defined(x, "dropout");
  RPTCN_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0,1)");
  if (!training || p == 0.0f) return x;
  trace::Attrs attrs;
  attrs.p = p;
  attrs.rng = &rng;
  return apply(trace::OpKind::kDropout, {&x, nullptr, nullptr}, attrs);
}

Variable spatial_dropout(const Variable& x, float p, Rng& rng, bool training) {
  check_defined(x, "spatial_dropout");
  RPTCN_CHECK(x.value().rank() == 3, "spatial_dropout expects [N,C,T]");
  RPTCN_CHECK(p >= 0.0f && p < 1.0f, "dropout p must be in [0,1)");
  if (!training || p == 0.0f) return x;
  trace::Attrs attrs;
  attrs.p = p;
  attrs.rng = &rng;
  return apply(trace::OpKind::kSpatialDropout, {&x, nullptr, nullptr}, attrs);
}

Variable softmax_lastdim_v(const Variable& a) {
  check_defined(a, "softmax");
  return apply(trace::OpKind::kSoftmaxLastdim, {&a, nullptr, nullptr});
}

Variable mul_bcast_channel(const Variable& a, const Variable& z) {
  check_defined(a, "mul_bcast_channel");
  check_defined(z, "mul_bcast_channel");
  return apply(trace::OpKind::kMulBcastChannel, {&a, &z, nullptr});
}

Variable sum_lastdim(const Variable& a) {
  check_defined(a, "sum_lastdim");
  return apply(trace::OpKind::kSumLastdim, {&a, nullptr, nullptr});
}

Variable time_slice(const Variable& x, std::size_t t) {
  check_defined(x, "time_slice");
  trace::Attrs attrs;
  attrs.start = t;
  return apply(trace::OpKind::kTimeSlice, {&x, nullptr, nullptr}, attrs);
}

Variable time_reverse(const Variable& x) {
  check_defined(x, "time_reverse");
  return apply(trace::OpKind::kTimeReverse, {&x, nullptr, nullptr});
}

Variable concat_cols(const Variable& a, const Variable& b) {
  check_defined(a, "concat_cols");
  check_defined(b, "concat_cols");
  return apply(trace::OpKind::kConcatCols, {&a, &b, nullptr});
}

Variable slice_cols(const Variable& x, std::size_t start, std::size_t count) {
  check_defined(x, "slice_cols");
  trace::Attrs attrs;
  attrs.start = start;
  attrs.count = count;
  return apply(trace::OpKind::kSliceCols, {&x, nullptr, nullptr}, attrs);
}

Variable mse_loss(const Variable& pred, const Tensor& target) {
  return apply_loss(trace::OpKind::kMseLoss, pred, target);
}

Variable mae_loss(const Variable& pred, const Tensor& target) {
  return apply_loss(trace::OpKind::kMaeLoss, pred, target);
}

Variable pinball_loss(const Variable& pred, const Tensor& target, float tau) {
  RPTCN_CHECK(tau > 0.0f && tau < 1.0f, "tau must be in (0,1)");
  trace::Attrs attrs;
  attrs.tau = tau;
  return apply_loss(trace::OpKind::kPinballLoss, pred, target, attrs);
}

// ---------------------------------------------------------------------------
// untraced helpers
// ---------------------------------------------------------------------------

Variable sub(const Variable& a, const Variable& b) {
  check_defined(a, "sub");
  check_defined(b, "sub");
  Tensor out = rptcn::sub(a.value(), b.value());
  return make_node(std::move(out), {a, b}, "sub", [a, b] {
    return [an = a.node(), bn = b.node()](Node& self) {
      if (an->requires_grad) an->accumulate(self.grad);
      if (bn->requires_grad) bn->accumulate(rptcn::neg(self.grad));
    };
  });
}

Variable add_scalar(const Variable& a, float s) {
  check_defined(a, "add_scalar");
  Tensor out = rptcn::add_scalar(a.value(), s);
  return make_node(std::move(out), {a}, "add_scalar", [a] {
    return [an = a.node()](Node& self) { an->accumulate(self.grad); };
  });
}

Variable mul_scalar(const Variable& a, float s) {
  check_defined(a, "mul_scalar");
  Tensor out = rptcn::mul_scalar(a.value(), s);
  return make_node(std::move(out), {a}, "mul_scalar", [a, s] {
    return [an = a.node(), s](Node& self) {
      an->accumulate(rptcn::mul_scalar(self.grad, s));
    };
  });
}

Variable neg(const Variable& a) { return mul_scalar(a, -1.0f); }

Variable matmul(const Variable& a, const Variable& b) {
  check_defined(a, "matmul");
  check_defined(b, "matmul");
  Tensor out = rptcn::matmul(a.value(), b.value());
  return make_node(std::move(out), {a, b}, "matmul", [a, b] {
    return [an = a.node(), bn = b.node()](Node& self) {
      // dA = dC * B^T; dB = A^T * dC.
      if (an->requires_grad)
        an->accumulate(rptcn::matmul_nt(self.grad, bn->value));
      if (bn->requires_grad)
        bn->accumulate(rptcn::matmul_tn(an->value, self.grad));
    };
  });
}

Variable reshape(const Variable& a, std::vector<std::size_t> shape) {
  check_defined(a, "reshape");
  Tensor out = a.value().reshape(shape);
  return make_node(std::move(out), {a}, "reshape", [a] {
    return [an = a.node()](Node& self) {
      an->accumulate(self.grad.reshape(an->value.shape()));
    };
  });
}

Variable sum_all(const Variable& a) {
  check_defined(a, "sum_all");
  Tensor out = Tensor::scalar(rptcn::sum(a.value()));
  return make_node(std::move(out), {a}, "sum_all", [a] {
    return [an = a.node()](Node& self) {
      an->accumulate(Tensor::full(an->value.shape(), self.grad.item()));
    };
  });
}

Variable mean_all(const Variable& a) {
  check_defined(a, "mean_all");
  const float inv = 1.0f / static_cast<float>(a.size());
  Tensor out = Tensor::scalar(rptcn::sum(a.value()) * inv);
  return make_node(std::move(out), {a}, "mean_all", [a, inv] {
    return [an = a.node(), inv](Node& self) {
      an->accumulate(Tensor::full(an->value.shape(), self.grad.item() * inv));
    };
  });
}

}  // namespace rptcn::ag
