// Synthetic regime-switching traces for the streaming and fleet benches:
// one or more trace::WorkloadModel segments stitched together at known
// ticks, so a scenario can score drift detection and adaptation against the
// exact flip points.
#pragma once

#include <cstdint>
#include <vector>

#include "data/timeseries.h"
#include "trace/workload_model.h"

namespace rptcn::stream {

/// One regime flip inside a generated trace: the tick index of the first
/// sample emitted under the new parameters, plus the scripted magnitude.
/// Scenario benches align their scoring windows to these instead of
/// hard-coding tick numbers.
struct MutationEvent {
  std::size_t tick = 0;           ///< first tick of the new regime (0-based)
  double base_level_delta = 0.0;  ///< new base_level minus old base_level
};

/// A generated trace together with its mutation schedule. The frame is the
/// eight-indicator Table-I series; `mutations` holds one event per regime
/// flip, in tick order (empty when the trace never flips).
struct MutatingTrace {
  data::TimeSeriesFrame frame;
  std::vector<MutationEvent> mutations;
};

/// One leg of a scripted regime schedule for make_regime_trace.
struct RegimeSegment {
  trace::WorkloadParams params;
  std::size_t steps = 0;  ///< zero-step segments are skipped (no flip)
};

/// Synthetic single-container trace with an abrupt regime mutation:
/// `params_a` drives the first `steps_before` ticks, then a fresh model
/// under `params_b` takes over for `steps_after` — a true distribution
/// change at a known tick, the scenario the drift detectors exist for.
/// The returned schedule records the flip (empty when steps_after == 0).
MutatingTrace make_mutating_trace(const trace::WorkloadParams& params_a,
                                  const trace::WorkloadParams& params_b,
                                  std::size_t steps_before,
                                  std::size_t steps_after,
                                  std::uint64_t seed,
                                  double contention = 0.3);

/// Generalised scripted schedule: each segment runs a fresh WorkloadModel
/// (per-segment derived seed) for its step count; every boundary between
/// two non-empty segments is recorded as a MutationEvent — a drift storm
/// with several flips at known ticks.
MutatingTrace make_regime_trace(const std::vector<RegimeSegment>& segments,
                                std::uint64_t seed, double contention = 0.3);

}  // namespace rptcn::stream
