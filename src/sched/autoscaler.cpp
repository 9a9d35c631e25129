#include "sched/autoscaler.h"

#include <algorithm>

#include "common/check.h"

namespace rptcn::sched {

void AutoscalerOptions::validate() const {
  RPTCN_CHECK(headroom >= 1.0, "AutoscalerOptions.headroom must be >= 1");
  RPTCN_CHECK(cpu_floor >= 0.0 && mem_floor >= 0.0,
              "AutoscalerOptions floors must be >= 0");
  RPTCN_CHECK(cpu_cap > 0.0 && cpu_cap >= cpu_floor,
              "AutoscalerOptions.cpu_cap must be > 0 and >= cpu_floor");
  RPTCN_CHECK(mem_floor <= 1.0,
              "AutoscalerOptions.mem_floor must be <= 1 (one machine)");
  RPTCN_CHECK(down_deadband >= 0.0 && down_deadband < 1.0,
              "AutoscalerOptions.down_deadband must be in [0, 1)");
}

namespace {

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

/// One resource's decision: immediate up, dead-banded down.
double step(double current, double target, double deadband) {
  if (target > current) return target;
  if (target < current * (1.0 - deadband)) return target;
  return current;
}

}  // namespace

Autoscaler::Autoscaler(AutoscalerOptions options) : options_(options) {
  options_.validate();
}

Allocation Autoscaler::decide(const std::string& entity,
                              const ResourceForecast& demand_fraction) {
  const double target_cpu =
      clamp(std::max(demand_fraction.cpu, 0.0) * options_.headroom,
            options_.cpu_floor, options_.cpu_cap);
  const double target_mem =
      clamp(std::max(demand_fraction.mem, 0.0) * options_.headroom,
            options_.mem_floor, 1.0);

  const auto it = current_.find(entity);
  Allocation next;
  next.entity = entity;
  if (it == current_.end()) {
    next.cpu = target_cpu;
    next.mem = target_mem;
  } else {
    next.cpu = step(it->second.cpu, target_cpu, options_.down_deadband);
    next.mem = step(it->second.mem, target_mem, options_.down_deadband);
    if (next.cpu != it->second.cpu || next.mem != it->second.mem)
      ++scale_events_;
  }
  current_[entity] = next;
  return next;
}

void Autoscaler::reset() {
  current_.clear();
  scale_events_ = 0;
}

}  // namespace rptcn::sched
