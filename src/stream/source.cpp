#include "stream/source.h"

namespace rptcn::stream {

MutatingTrace make_mutating_trace(const trace::WorkloadParams& params_a,
                                  const trace::WorkloadParams& params_b,
                                  std::size_t steps_before,
                                  std::size_t steps_after,
                                  std::uint64_t seed,
                                  double contention) {
  return make_regime_trace(
      {{params_a, steps_before}, {params_b, steps_after}}, seed, contention);
}

MutatingTrace make_regime_trace(const std::vector<RegimeSegment>& segments,
                                std::uint64_t seed, double contention) {
  std::size_t total = 0;
  for (const RegimeSegment& s : segments) total += s.steps;
  std::vector<std::vector<double>> cols(trace::kIndicatorCount);
  for (auto& c : cols) c.reserve(total);

  MutatingTrace out;
  std::size_t tick = 0;
  bool first_live_segment = true;
  double prev_base = 0.0;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const RegimeSegment& segment = segments[k];
    // Per-segment seed: seed ^ (k * golden-ratio). Indexing counts skipped
    // (zero-step) segments too, so the two-regime helper keeps its
    // historical bit pattern (segment 0 = seed, segment 1 = seed ^ golden),
    // and every segment of an A-B-A storm still gets a distinct stream.
    const std::uint64_t this_seed =
        seed ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL);
    if (segment.steps == 0) continue;
    if (!first_live_segment)
      out.mutations.push_back(
          {tick, segment.params.base_level - prev_base});
    first_live_segment = false;
    prev_base = segment.params.base_level;
    trace::WorkloadModel model(segment.params, this_seed);
    for (std::size_t t = 0; t < segment.steps; ++t) {
      const trace::IndicatorSample s = model.step(contention);
      for (std::size_t i = 0; i < trace::kIndicatorCount; ++i)
        cols[i].push_back(s.values[i]);
      ++tick;
    }
  }

  const auto& names = trace::indicator_names();
  for (std::size_t i = 0; i < trace::kIndicatorCount; ++i)
    out.frame.add(names[i], std::move(cols[i]));
  return out;
}

}  // namespace rptcn::stream
