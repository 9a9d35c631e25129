#include "graph/plan.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "tensor/buffer_pool.h"

namespace rptcn::graph {

namespace {

std::atomic<bool>& planning_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}

struct GraphMetrics {
  obs::Counter& captures = obs::metrics().counter("graph/captures");
  obs::Counter& cache_hits = obs::metrics().counter("graph/plan_cache_hits");
  obs::Counter& cache_misses =
      obs::metrics().counter("graph/plan_cache_misses");
  obs::Counter& replays = obs::metrics().counter("graph/replays");
  obs::Gauge& arena_bytes = obs::metrics().gauge("graph/arena_bytes");
  obs::Histogram& capture_seconds =
      obs::metrics().histogram("graph/capture_seconds");
};

GraphMetrics& graph_metrics() {
  static GraphMetrics* m = new GraphMetrics();
  return *m;
}

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

/// Arena blocks are 16-float (64-byte) aligned so every planned value
/// starts on a cache line and SIMD loops see aligned rows.
constexpr std::size_t kArenaAlignFloats = 16;

std::size_t align_up(std::size_t n) {
  return (n + kArenaAlignFloats - 1) / kArenaAlignFloats * kArenaAlignFloats;
}

std::size_t shape_floats(const std::vector<std::size_t>& shape) {
  return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                         std::multiplies<std::size_t>());
}

std::string shape_string(const std::vector<std::size_t>& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

}  // namespace

bool planning_enabled() {
  return planning_flag().load(std::memory_order_relaxed);
}

void set_planning_enabled(bool on) {
  planning_flag().store(on, std::memory_order_relaxed);
}

// -- Executable ---------------------------------------------------------------

Executable::Executable(std::vector<TensorOp> steps,
                       std::vector<ValueInfo> values,
                       std::vector<std::size_t> input_shape,
                       std::vector<std::size_t> output_shape,
                       std::size_t arena_floats)
    : steps_(std::move(steps)),
      values_(std::move(values)),
      input_shape_(std::move(input_shape)),
      output_shape_(std::move(output_shape)),
      arena_floats_(arena_floats) {}

Tensor Executable::run(const Tensor& x) const {
  RPTCN_CHECK(x.shape() == input_shape_,
              "planned executable expects input "
                  << shape_string(input_shape_) << ", got "
                  << x.shape_string());
  Tensor out(output_shape_);
  // Per-call arena from the thread-local pool: concurrent replays of the
  // same Executable never share intermediate storage.
  pool::Scratch arena(arena_floats_);
  ExecContext ctx{x.raw(), out.raw(), arena.data()};
  for (const TensorOp& step : steps_) step.op(ctx);
  if (obs::enabled()) {
    graph_metrics().replays.add(1);
    graph_metrics().arena_bytes.set_max(
        static_cast<double>(arena_floats_ * sizeof(float)));
  }
  return out;
}

// -- Resolver -----------------------------------------------------------------

std::function<float*(const ExecContext&)> Resolver::ptr(ValueId v) const {
  const ValueInfo& info = (*values_)[v];
  const std::size_t off = info.off;
  RPTCN_CHECK(info.loc != Loc::kInput, "planned graph: input is read-only");
  RPTCN_CHECK(info.loc != Loc::kTarget, "planned graph: target is read-only");
  if (info.loc == Loc::kOutput)
    return [off](const ExecContext& c) { return c.output + off; };
  if (info.loc == Loc::kGrads)
    return [off](const ExecContext& c) { return c.grads + off; };
  return [off](const ExecContext& c) { return c.arena + off; };
}

std::function<const float*(const ExecContext&)> Resolver::cptr(
    ValueId v) const {
  const ValueInfo& info = (*values_)[v];
  const std::size_t off = info.off;
  switch (info.loc) {
    case Loc::kInput:
      return [off](const ExecContext& c) {
        return static_cast<const float*>(c.input + off);
      };
    case Loc::kOutput:
      return [off](const ExecContext& c) {
        return static_cast<const float*>(c.output + off);
      };
    case Loc::kTarget:
      return [off](const ExecContext& c) {
        return static_cast<const float*>(c.target + off);
      };
    case Loc::kGrads:
      return [off](const ExecContext& c) {
        return static_cast<const float*>(c.grads + off);
      };
    case Loc::kArena:
    default:
      return [off](const ExecContext& c) {
        return static_cast<const float*>(c.arena + off);
      };
  }
}

// -- GraphBuilder -------------------------------------------------------------

GraphBuilder::GraphBuilder(std::vector<std::size_t> input_shape,
                           std::vector<std::size_t> output_shape)
    : input_shape_(std::move(input_shape)),
      output_shape_(std::move(output_shape)) {
  values_.push_back(
      {Loc::kInput, 0, shape_floats(input_shape_), 0, 0});
  input_id_ = 0;
  values_.push_back(
      {Loc::kOutput, 0, shape_floats(output_shape_), 0, 0});
  output_id_ = 1;
}

ValueId GraphBuilder::input_value() { return input_id_; }
ValueId GraphBuilder::output_value() { return output_id_; }

ValueId GraphBuilder::value(std::size_t floats) {
  RPTCN_CHECK(floats > 0, "planned value must be non-empty");
  values_.push_back({Loc::kArena, 0, floats, kNpos, 0});
  return values_.size() - 1;
}

ValueId GraphBuilder::target_value(std::size_t floats) {
  if (target_id_ != kNoValue) {
    RPTCN_CHECK(values_[target_id_].floats == floats,
                "target_value size changed within one program");
    return target_id_;
  }
  RPTCN_CHECK(floats > 0, "target value must be non-empty");
  values_.push_back({Loc::kTarget, 0, floats, 0, 0});
  target_id_ = values_.size() - 1;
  return target_id_;
}

ValueId GraphBuilder::grads_value(std::size_t off, std::size_t floats) {
  RPTCN_CHECK(floats > 0, "grads value must be non-empty");
  values_.push_back({Loc::kGrads, off, floats, 0, 0});
  return values_.size() - 1;
}

void GraphBuilder::emit(EmitSpec spec, MakeFn make) {
  for (ValueId v : spec.inputs)
    RPTCN_CHECK(v < values_.size(), "emit: bad input id");
  for (ValueId v : spec.outputs)
    RPTCN_CHECK(v < values_.size(), "emit: bad output id");
  for (ValueId v : spec.scratch)
    RPTCN_CHECK(v < values_.size(), "emit: bad scratch id");
  specs_.push_back(std::move(spec));
  makes_.push_back(std::move(make));
}

std::shared_ptr<const Executable> GraphBuilder::finish() {
  const std::size_t n_steps = specs_.size();
  const std::size_t n_vals = values_.size();

  // 1. Liveness: def = first defining step (output or scratch), last = last
  // step touching the value at all. A gradient slot that receives several
  // contributions is an output of each contributing step; it keeps the first
  // def and extends last.
  for (std::size_t v = 2; v < n_vals; ++v) values_[v].def = kNpos;
  for (std::size_t s = 0; s < n_steps; ++s) {
    const EmitSpec& spec = specs_[s];
    for (ValueId v : spec.outputs) {
      if (values_[v].def == kNpos) values_[v].def = s;
      values_[v].last = s;
    }
    for (ValueId v : spec.scratch) {
      if (values_[v].def == kNpos) values_[v].def = s;
      values_[v].last = s;
    }
    for (ValueId v : spec.inputs) {
      RPTCN_CHECK(values_[v].loc != Loc::kArena || values_[v].def != kNpos,
                  "step " << s << " (" << spec.name
                          << ") reads value before any definition");
      RPTCN_CHECK(values_[v].loc != Loc::kArena || values_[v].def <= s,
                  "step " << s << " reads a not-yet-defined value");
      values_[v].last = std::max(values_[v].last, s);
    }
  }

  // 2. Arena assignment: linear scan over steps with a first-fit free list
  // (offset-sorted, coalescing). Values dying at step s-1 are freed before
  // values defined at step s are placed.
  std::vector<std::vector<ValueId>> alloc_at(n_steps);
  std::vector<std::vector<ValueId>> free_after(n_steps);
  for (std::size_t v = 0; v < n_vals; ++v) {
    if (values_[v].loc != Loc::kArena) continue;
    RPTCN_CHECK(values_[v].def != kNpos, "arena value never defined");
    alloc_at[values_[v].def].push_back(v);
    free_after[values_[v].last].push_back(v);
  }
  struct Block {
    std::size_t off, size;
  };
  std::vector<Block> free_list;  // sorted by off, coalesced
  const auto insert_free = [&free_list](std::size_t off, std::size_t size) {
    auto it = std::lower_bound(
        free_list.begin(), free_list.end(), off,
        [](const Block& b, std::size_t o) { return b.off < o; });
    it = free_list.insert(it, {off, size});
    if (it + 1 != free_list.end() && it->off + it->size == (it + 1)->off) {
      it->size += (it + 1)->size;
      free_list.erase(it + 1);
    }
    if (it != free_list.begin() && (it - 1)->off + (it - 1)->size == it->off) {
      (it - 1)->size += it->size;
      free_list.erase(it);
    }
  };
  std::size_t arena_floats = 0;
  for (std::size_t s = 0; s < n_steps; ++s) {
    if (s > 0)
      for (ValueId v : free_after[s - 1])
        insert_free(values_[v].off, align_up(values_[v].floats));
    for (ValueId v : alloc_at[s]) {
      const std::size_t sz = align_up(values_[v].floats);
      bool placed = false;
      for (auto it = free_list.begin(); it != free_list.end(); ++it) {
        if (it->size < sz) continue;
        values_[v].off = it->off;
        if (it->size == sz) {
          free_list.erase(it);
        } else {
          it->off += sz;
          it->size -= sz;
        }
        placed = true;
        break;
      }
      if (placed) continue;
      // Grow the arena; absorb a trailing free block so growth is tight.
      std::size_t off = arena_floats;
      if (!free_list.empty() &&
          free_list.back().off + free_list.back().size == arena_floats) {
        off = free_list.back().off;
        free_list.pop_back();
      }
      values_[v].off = off;
      arena_floats = off + sz;
    }
  }

  // 3. Safety net: no two concurrently-live arena values may overlap.
  // O(V^2) but capture-time only.
  for (std::size_t a = 0; a < n_vals; ++a) {
    if (values_[a].loc != Loc::kArena) continue;
    for (std::size_t b = a + 1; b < n_vals; ++b) {
      if (values_[b].loc != Loc::kArena) continue;
      const bool live_overlap =
          values_[a].def <= values_[b].last && values_[b].def <= values_[a].last;
      if (!live_overlap) continue;
      const bool disjoint =
          values_[a].off + values_[a].floats <= values_[b].off ||
          values_[b].off + values_[b].floats <= values_[a].off;
      RPTCN_CHECK(disjoint, "arena planner bug: values " << a << " and " << b
                                                         << " overlap");
    }
  }

  // 4. Bake the closures against the final offsets and freeze.
  Resolver resolver(&values_);
  std::vector<TensorOp> steps;
  steps.reserve(n_steps);
  for (std::size_t s = 0; s < n_steps; ++s)
    steps.push_back(
        {makes_[s](resolver), specs_[s].name, specs_[s].inputs.size()});
  return std::make_shared<const Executable>(
      std::move(steps), std::move(values_), std::move(input_shape_),
      std::move(output_shape_), arena_floats);
}

// -- PlanCache ----------------------------------------------------------------

PlanCache::PlanCache(CaptureFn capture) : capture_(std::move(capture)) {
  RPTCN_CHECK(capture_ != nullptr, "PlanCache needs a capture function");
}

std::shared_ptr<const Executable> PlanCache::get(const Tensor& x) {
  RPTCN_CHECK(x.rank() == 3, "PlanCache expects [N, F, T], got "
                                 << x.shape_string());
  const std::array<std::size_t, 3> key{x.dim(0), x.dim(1), x.dim(2)};
  // Capture runs under the lock: rare (once per shape), and serialising it
  // means concurrent first requests for one shape plan exactly once.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    graph_metrics().cache_hits.add(1);
    return it->second;
  }
  graph_metrics().cache_misses.add(1);
  Stopwatch sw;
  std::shared_ptr<const Executable> exec = capture_(x);
  graph_metrics().captures.add(1);
  if (obs::enabled())
    graph_metrics().capture_seconds.record(sw.elapsed_seconds());
  if (order_.size() >= kMaxPlans) {
    plans_.erase(order_.front());
    order_.erase(order_.begin());
  }
  plans_.emplace(key, exec);
  order_.push_back(key);
  return exec;
}

std::vector<std::array<std::size_t, 3>> PlanCache::shapes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_.size();
}

}  // namespace rptcn::graph
