// ClusterSimulator — the repository's stand-in for Alibaba trace v2018.
//
// A cluster of machines, each co-locating several containers of mixed
// workload classes (online services + batch jobs + streaming), sampled at a
// fixed interval. Machine pressure feeds back into every resident
// container's model (interference), and machine-level indicator series are
// the capacity-weighted aggregates of their containers plus an OS baseline.
//
// Calibration targets (checked by tests and the Fig. 2/3 benches):
//  * cluster-average CPU < 60 % for at least 75 % of the time;
//  * > 80 % of machines below 50 % average CPU utilisation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/timeseries.h"
#include "trace/workload_model.h"

namespace rptcn::trace {

/// Each machine hosts 2-5 containers (uniform) and adds a 5 % OS CPU floor.
struct TraceConfig {
  std::size_t num_machines = 32;
  std::size_t duration_steps = 3000;
  double interval_seconds = 10.0;       ///< the paper uses 10 s sampling
  std::size_t steps_per_day = 8640;     ///< for the diurnal component
  std::uint64_t seed = 2018;
};

/// Static description of one simulated container.
struct ContainerInfo {
  std::string id;          ///< "c_<n>" in the Alibaba naming style
  std::size_t machine;     ///< index of the hosting machine
  WorkloadClass workload_class;
  double cpu_share;        ///< fraction of the machine's cores it may use
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(const TraceConfig& config);

  /// Generate the whole trace. Must be called once before any accessor.
  void run();

  const TraceConfig& config() const { return config_; }
  std::size_t num_machines() const { return config_.num_machines; }
  std::size_t num_containers() const { return containers_.size(); }

  const ContainerInfo& container_info(std::size_t i) const;
  /// Eight-indicator frame for one container ("c_<n>").
  const data::TimeSeriesFrame& container_trace(std::size_t i) const;
  /// Eight-indicator frame for one machine ("m_<n>").
  const data::TimeSeriesFrame& machine_trace(std::size_t i) const;
  std::string machine_id(std::size_t i) const;

  /// Machine-average CPU fraction (0..1) over time, one value per step —
  /// the series behind the paper's Fig. 2.
  std::vector<double> cluster_average_cpu() const;

 private:
  TraceConfig config_;
  std::vector<ContainerInfo> containers_;
  std::vector<std::vector<std::size_t>> machine_containers_;
  std::vector<data::TimeSeriesFrame> container_frames_;
  std::vector<data::TimeSeriesFrame> machine_frames_;
  bool ran_ = false;
};

}  // namespace rptcn::trace
