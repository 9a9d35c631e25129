// The forward-only compile behind serving plans (see train.h).
#include <cstring>
#include <memory>

#include "autograd/trace.h"
#include "graph/compile.h"
#include "graph/train.h"
#include "tensor/buffer_pool.h"

namespace rptcn::graph {

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
      compile_forward_trace(trace, xv.node(), out.node());
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

}  // namespace rptcn::graph
