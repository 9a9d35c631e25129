// RetrainScheduler: the fleet's background fit queue.
//
// A fleet has up to thousands of entities whose drift events cluster (a
// regime change hits a whole cohort at once), so the scheduler is an
// elastic priority queue in front of a bounded worker pool:
//
//  * request() files (entity, priority, reason); priority is the drift
//    severity the manager computes from the detector statistics, so the
//    worst-drifted entities are retrained first and stable ones starve —
//    by design, the budget goes where the drift is. Equal priorities run
//    in request order.
//  * At most `workers` fits run concurrently — the global retrain budget.
//    A drift storm over 500 entities queues 500 requests and trickles
//    them through K fit slots instead of forking 500 trainers.
//  * One queue slot per entity: a re-request while queued changes nothing,
//    it never duplicates work. (The FleetManager files none: it holds an
//    entity's next request until its fit ends, raising the entity's
//    latched severity instead.)
//  * The queue is bounded (kMaxQueue); beyond it requests are rejected
//    and the caller's drift detectors simply re-trigger later.
//  * Each fit runs inside an ActiveJobScope, like a ThreadPool task, so
//    two concurrent fits (or a fit beside a serving batch) keep their
//    kernels on one thread each instead of forking OpenMP teams.
//
// The scheduler is mechanism only — it runs an opaque FitFn per request.
// The FleetManager supplies the fit (history snapshot -> gated fit ->
// session install); tests supply stubs to pin ordering and budget.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace rptcn::fleet {

struct SchedulerOptions {
  std::size_t workers = 2;  ///< concurrent-fit budget (>= 1)
  std::string tenant;       ///< fleet/retrain_* metrics label

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

struct RetrainRequest {
  std::string entity;
  double priority = 0.0;  ///< drift severity; higher runs first
  std::string reason;     ///< detector reason string, for the outcome log
};

struct SchedulerStats {
  std::size_t queued = 0;           ///< requests waiting for a fit slot
  std::size_t inflight = 0;         ///< fits running right now
  std::uint64_t accepted = 0;       ///< requests ever queued
  std::uint64_t completed = 0;      ///< fits finished (success or failure)
  std::uint64_t rejected_full = 0;  ///< requests bounced off kMaxQueue
};

class RetrainScheduler {
 public:
  /// `fit` runs on a scheduler worker thread, one call per dispatched
  /// request; it must not throw (a throwing fit is counted and swallowed).
  using FitFn = std::function<void(const RetrainRequest&)>;
  /// Pending requests bound.
  static constexpr std::size_t kMaxQueue = 256;

  RetrainScheduler(SchedulerOptions options, FitFn fit);
  /// Stops intake, abandons queued requests, waits for in-flight fits.
  ~RetrainScheduler();
  RetrainScheduler(const RetrainScheduler&) = delete;
  RetrainScheduler& operator=(const RetrainScheduler&) = delete;

  /// File a request. Returns false when the queue is full or the scheduler
  /// is stopping. A request for an already-queued entity returns true and
  /// leaves that entry, priority included, as it is.
  bool request(RetrainRequest r);

  /// Block until the queue is empty and no fit is in flight.
  void wait_idle();

  SchedulerStats stats() const;
  const SchedulerOptions& options() const { return options_; }

 private:
  struct Queued {
    RetrainRequest request;
    std::uint64_t seq = 0;  ///< FIFO tiebreak among equal priorities
  };

  void worker_loop();
  /// std::push_heap "less" ordering: max priority at the front, FIFO
  /// (lower seq) among equals.
  static bool heap_less(const Queued& a, const Queued& b);

  SchedulerOptions options_;
  FitFn fit_;

  obs::Gauge& queue_depth_;
  obs::Gauge& inflight_gauge_;
  obs::Counter& scheduled_counter_;
  obs::Counter& rejected_counter_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::vector<Queued> heap_;  ///< max-heap via std::push/pop_heap
  std::uint64_t next_seq_ = 0;
  std::size_t inflight_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_full_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rptcn::fleet
