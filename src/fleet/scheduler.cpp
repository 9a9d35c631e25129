#include "fleet/scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace rptcn::fleet {

namespace {

/// Validation hook for the member-initializer list.
const SchedulerOptions& validated(const SchedulerOptions& options) {
  options.validate();
  return options;
}

}  // namespace

void SchedulerOptions::validate() const {
  RPTCN_CHECK(workers >= 1, "SchedulerOptions.workers must be >= 1");
  RPTCN_CHECK(tenant.find_first_of("{}=") == std::string::npos,
              "SchedulerOptions.tenant must not contain '{', '}' or '=': \""
                  << tenant << "\"");
}

RetrainScheduler::RetrainScheduler(SchedulerOptions options, FitFn fit)
    : options_(validated(options)),
      fit_(std::move(fit)),
      queue_depth_(obs::metrics().gauge("fleet/retrain_queue_depth",
                                        options_.tenant)),
      inflight_gauge_(
          obs::metrics().gauge("fleet/retrain_inflight", options_.tenant)),
      scheduled_counter_(obs::metrics().counter("fleet/retrains_scheduled",
                                                options_.tenant)),
      rejected_counter_(obs::metrics().counter("fleet/retrain_queue_rejected",
                                               options_.tenant)) {
  RPTCN_CHECK(fit_ != nullptr, "RetrainScheduler needs a fit function");
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

RetrainScheduler::~RetrainScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Queued-but-not-started requests are abandoned: on shutdown the fleet
    // is going away with them, and a fit nobody will serve is pure waste.
    heap_.clear();
    queue_depth_.set(0.0);
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool RetrainScheduler::request(RetrainRequest r) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return false;
    // One slot per entity: the queued entry already covers this request.
    for (const Queued& q : heap_)
      if (q.request.entity == r.entity) return true;
    if (heap_.size() >= kMaxQueue) {
      ++rejected_full_;
      rejected_counter_.add(1);
      return false;
    }
    heap_.push_back(Queued{std::move(r), next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), heap_less);
    ++accepted_;
    scheduled_counter_.add(1);
    queue_depth_.set(static_cast<double>(heap_.size()));
  }
  cv_.notify_one();
  return true;
}

void RetrainScheduler::worker_loop() {
  for (;;) {
    RetrainRequest r;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !heap_.empty(); });
      if (stop_) return;
      std::pop_heap(heap_.begin(), heap_.end(), heap_less);
      r = std::move(heap_.back().request);
      heap_.pop_back();
      ++inflight_;
      queue_depth_.set(static_cast<double>(heap_.size()));
      inflight_gauge_.set(static_cast<double>(inflight_));
    }
    try {
      // A fit is a coarse job, like a pool task or a batch forward: while
      // another one runs, its kernels stay on this thread instead of
      // forking an OpenMP team onto the cores serving needs.
      ActiveJobScope job;
      fit_(r);
    } catch (...) {
      // The fit contract is no-throw; a violation must not kill the worker.
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inflight_;
      ++completed_;
      inflight_gauge_.set(static_cast<double>(inflight_));
    }
    idle_cv_.notify_all();
  }
}

void RetrainScheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return heap_.empty() && inflight_ == 0; });
}

SchedulerStats RetrainScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats s;
  s.queued = heap_.size();
  s.inflight = inflight_;
  s.accepted = accepted_;
  s.completed = completed_;
  s.rejected_full = rejected_full_;
  return s;
}

bool RetrainScheduler::heap_less(const Queued& a, const Queued& b) {
  if (a.request.priority != b.request.priority)
    return a.request.priority < b.request.priority;
  return a.seq > b.seq;
}

}  // namespace rptcn::fleet
