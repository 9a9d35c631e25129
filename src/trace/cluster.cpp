#include "trace/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rptcn::trace {

namespace {
double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

WorkloadClass sample_class(Rng& rng) {
  const std::size_t pick = rng.categorical({0.4, 0.4, 0.2});
  switch (pick) {
    case 0:
      return WorkloadClass::kOnlineService;
    case 1:
      return WorkloadClass::kBatchJob;
    default:
      return WorkloadClass::kStreaming;
  }
}
}  // namespace

ClusterSimulator::ClusterSimulator(const TraceConfig& config)
    : config_(config) {
  RPTCN_CHECK(config.num_machines > 0, "need at least one machine");
  RPTCN_CHECK(config.duration_steps > 1, "duration too short");

  Rng rng(config.seed);
  machine_containers_.resize(config.num_machines);
  std::size_t next_id = 0;
  for (std::size_t m = 0; m < config.num_machines; ++m) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(2, 5));
    // Raw shares, rescaled so the machine's total allocatable share lands in
    // [0.5, 0.85] — mirroring overcommit-averse production placement.
    std::vector<double> raw(count);
    double raw_sum = 0.0;
    for (auto& r : raw) {
      r = rng.uniform(0.2, 0.5);
      raw_sum += r;
    }
    const double budget = rng.uniform(0.6, 0.95);
    for (std::size_t c = 0; c < count; ++c) {
      ContainerInfo info;
      info.id = "c_" + std::to_string(18100 + next_id);
      info.machine = m;
      info.workload_class = sample_class(rng);
      info.cpu_share = raw[c] / raw_sum * budget;
      machine_containers_[m].push_back(containers_.size());
      containers_.push_back(std::move(info));
      ++next_id;
    }
  }
}

void ClusterSimulator::run() {
  RPTCN_CHECK(!ran_, "ClusterSimulator::run() called twice");
  ran_ = true;

  Rng rng(config_.seed ^ 0x5bd1e995u);
  const std::size_t steps = config_.duration_steps;

  // Per-container indicator buffers.
  std::vector<std::array<std::vector<double>, kIndicatorCount>> cbuf(
      containers_.size());
  for (auto& arr : cbuf)
    for (auto& col : arr) col.reserve(steps);
  std::vector<std::array<std::vector<double>, kIndicatorCount>> mbuf(
      config_.num_machines);
  for (auto& arr : mbuf)
    for (auto& col : arr) col.reserve(steps);

  // Build the per-container models.
  std::vector<WorkloadModel> models;
  models.reserve(containers_.size());
  for (const auto& info : containers_) {
    Rng prng = rng.split();
    WorkloadParams params = sample_params(info.workload_class, prng);
    params.steps_per_day = config_.steps_per_day;
    models.emplace_back(params, prng());
  }

  std::vector<Rng> machine_noise;
  machine_noise.reserve(config_.num_machines);
  for (std::size_t m = 0; m < config_.num_machines; ++m)
    machine_noise.push_back(rng.split());

  // One-step-lagged machine CPU is the contention signal (stable feedback).
  std::vector<double> machine_cpu_prev(config_.num_machines, 0.0);

  // Container churn: placements come and go (scheduler arrivals, departures,
  // migrations). This is what gives *machine-level* series their abrupt
  // sustained level shifts — a single container's mutation is diluted by
  // aggregation, a placement change is not.
  std::vector<bool> active(containers_.size());
  std::vector<Rng> churn_rng;
  churn_rng.reserve(containers_.size());
  for (std::size_t ci = 0; ci < containers_.size(); ++ci) {
    churn_rng.push_back(rng.split());
    active[ci] = churn_rng.back().bernoulli(0.85);
  }
  constexpr double kDepartRate = 0.0008;  // expected residency ~1250 steps
  constexpr double kArriveRate = 0.0030;  // expected gap ~330 steps

  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t m = 0; m < config_.num_machines; ++m) {
      const double contention = machine_cpu_prev[m];
      double cpu_sum = 0.0, mem_sum = 0.0, gps_sum = 0.0;
      double net_in_sum = 0.0, net_out_sum = 0.0, disk_sum = 0.0;
      double cpi_weighted = 0.0, mpki_weighted = 0.0, act_weight = 0.0;
      double share_sum = 0.0;

      for (const std::size_t ci : machine_containers_[m]) {
        const double share = containers_[ci].cpu_share;
        // Churn transition for this container.
        if (active[ci]) {
          if (churn_rng[ci].bernoulli(kDepartRate)) active[ci] = false;
        } else if (churn_rng[ci].bernoulli(kArriveRate)) {
          active[ci] = true;
        }
        IndicatorSample s = models[ci].step(contention);
        if (!active[ci]) {
          // Descheduled placement: near-idle footprint, healthy memory
          // system (no work -> no misses/stalls).
          s[Indicator::kCpuUtilPercent] *= 0.05;
          s[Indicator::kMemGps] *= 0.1;
          s[Indicator::kNetIn] *= 0.1;
          s[Indicator::kNetOut] *= 0.1;
          s[Indicator::kDiskIoPercent] *= 0.3;
          s[Indicator::kMpki] = 1.0 + 0.05 * s[Indicator::kMpki];
          s[Indicator::kCpi] = 0.8 + 0.1 * s[Indicator::kCpi];
        }
        for (std::size_t k = 0; k < kIndicatorCount; ++k)
          cbuf[ci][k].push_back(s.values[k]);

        const double cpu_frac = s[Indicator::kCpuUtilPercent] / 100.0;
        cpu_sum += share * cpu_frac;
        mem_sum += share * s[Indicator::kMemUtilPercent] / 100.0;
        gps_sum += share * s[Indicator::kMemGps];
        net_in_sum += share * s[Indicator::kNetIn];
        net_out_sum += share * s[Indicator::kNetOut];
        disk_sum += share * s[Indicator::kDiskIoPercent] / 100.0;
        const double activity = share * cpu_frac + 1e-9;
        cpi_weighted += activity * s[Indicator::kCpi];
        mpki_weighted += activity * s[Indicator::kMpki];
        act_weight += activity;
        share_sum += share;
      }

      Rng& mrng = machine_noise[m];
      const double machine_cpu =
          clamp01(0.05 + cpu_sum + mrng.normal(0.0, 0.01));  // + OS floor
      machine_cpu_prev[m] = machine_cpu;

      auto& out = mbuf[m];
      out[static_cast<std::size_t>(Indicator::kCpuUtilPercent)].push_back(
          100.0 * machine_cpu);
      out[static_cast<std::size_t>(Indicator::kMemUtilPercent)].push_back(
          100.0 * clamp01(0.15 + mem_sum + mrng.normal(0.0, 0.005)));
      out[static_cast<std::size_t>(Indicator::kCpi)].push_back(
          cpi_weighted / act_weight);
      out[static_cast<std::size_t>(Indicator::kMemGps)].push_back(
          clamp01(gps_sum / std::max(share_sum, 1e-9)));
      out[static_cast<std::size_t>(Indicator::kMpki)].push_back(
          mpki_weighted / act_weight);
      out[static_cast<std::size_t>(Indicator::kNetIn)].push_back(
          clamp01(net_in_sum));
      out[static_cast<std::size_t>(Indicator::kNetOut)].push_back(
          clamp01(net_out_sum));
      out[static_cast<std::size_t>(Indicator::kDiskIoPercent)].push_back(
          100.0 * clamp01(disk_sum / std::max(share_sum, 1e-9)));
    }
  }

  // Materialise frames.
  container_frames_.reserve(containers_.size());
  for (std::size_t ci = 0; ci < containers_.size(); ++ci) {
    data::TimeSeriesFrame frame;
    for (std::size_t k = 0; k < kIndicatorCount; ++k)
      frame.add(indicator_names()[k], std::move(cbuf[ci][k]));
    container_frames_.push_back(std::move(frame));
  }
  machine_frames_.reserve(config_.num_machines);
  for (std::size_t m = 0; m < config_.num_machines; ++m) {
    data::TimeSeriesFrame frame;
    for (std::size_t k = 0; k < kIndicatorCount; ++k)
      frame.add(indicator_names()[k], std::move(mbuf[m][k]));
    machine_frames_.push_back(std::move(frame));
  }
}

const ContainerInfo& ClusterSimulator::container_info(std::size_t i) const {
  RPTCN_CHECK(i < containers_.size(), "container index out of range");
  return containers_[i];
}

const data::TimeSeriesFrame& ClusterSimulator::container_trace(
    std::size_t i) const {
  RPTCN_CHECK(ran_, "call run() first");
  RPTCN_CHECK(i < container_frames_.size(), "container index out of range");
  return container_frames_[i];
}

const data::TimeSeriesFrame& ClusterSimulator::machine_trace(
    std::size_t i) const {
  RPTCN_CHECK(ran_, "call run() first");
  RPTCN_CHECK(i < machine_frames_.size(), "machine index out of range");
  return machine_frames_[i];
}

std::string ClusterSimulator::machine_id(std::size_t i) const {
  RPTCN_CHECK(i < config_.num_machines, "machine index out of range");
  return "m_" + std::to_string(1000 + i);
}

std::vector<double> ClusterSimulator::cluster_average_cpu() const {
  RPTCN_CHECK(ran_, "call run() first");
  std::vector<double> avg(config_.duration_steps, 0.0);
  for (std::size_t m = 0; m < config_.num_machines; ++m) {
    const auto& cpu = machine_frames_[m].column(
        indicator_names()[static_cast<std::size_t>(Indicator::kCpuUtilPercent)]);
    for (std::size_t t = 0; t < avg.size(); ++t) avg[t] += cpu[t] / 100.0;
  }
  for (auto& v : avg) v /= static_cast<double>(config_.num_machines);
  return avg;
}

}  // namespace rptcn::trace
