// Autoscaler: forecast demand -> provisioning decision, with headroom and
// scale-down hysteresis.
//
// The policy knobs are the frontier axis: sweeping `headroom` trades SLA
// violations (too little slack, demand spikes past the allocation) against
// over-provision cost (too much slack, capacity idles). The dead-band
// suppresses scale-down churn — an allocation shrinks only when the target
// drops a full `down_deadband` fraction below it, so noise around a level
// does not generate a scale event per tick.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>

#include "sched/cluster.h"
#include "sched/forecast.h"

namespace rptcn::sched {

struct AutoscalerOptions {
  /// Multiplier on forecast demand (>= 1 provisions slack above it).
  double headroom = 1.15;
  /// Minimum allocation, as a fraction of one machine — even an idle
  /// entity keeps a sliver so it restarts without a cold allocation.
  double cpu_floor = 0.02;
  double mem_floor = 0.02;
  /// Maximum CPU allocation; memory is capped at one machine (entities do
  /// not shard).
  double cpu_cap = 1.0;
  /// Shrink only when the target falls below current * (1 - down_deadband).
  double down_deadband = 0.10;

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

class Autoscaler {
 public:
  explicit Autoscaler(AutoscalerOptions options = {});

  /// Decide `entity`'s allocation from forecast demand expressed as a
  /// fraction of one machine's capacity. Scale-ups apply immediately;
  /// scale-downs only past the dead-band; otherwise the previous
  /// allocation is kept. Deterministic per (entity history, demand).
  Allocation decide(const std::string& entity,
                    const ResourceForecast& demand_fraction);

  /// Allocation changes so far (an entity's first allocation is not a
  /// scale event — churn, not existence, is what this counts).
  std::size_t scale_events() const { return scale_events_; }

  /// Drop all per-entity state (allocations and the event counter).
  void reset();

 private:
  AutoscalerOptions options_;
  std::unordered_map<std::string, Allocation> current_;
  std::size_t scale_events_ = 0;
};

}  // namespace rptcn::sched
