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
  RPTCN_CHECK(max_queue >= 1, "SchedulerOptions.max_queue must be >= 1");
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
    queued_.clear();
    queue_depth_.set(0.0);
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool RetrainScheduler::request(RetrainRequest r) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return false;
    auto it = queued_.find(r.entity);
    if (it != queued_.end()) {
      // Already queued: raise the live priority in place. The old heap
      // entry goes stale and pop_best skips it.
      if (r.priority > it->second) {
        it->second = r.priority;
        heap_.push_back(HeapEntry{r.priority, next_seq_++,
                                  std::move(r.entity), std::move(r.reason)});
        std::push_heap(heap_.begin(), heap_.end(), heap_less);
        ++reprioritized_;
      }
      return true;
    }
    if (queued_.size() >= options_.max_queue) {
      ++rejected_full_;
      rejected_counter_.add(1);
      return false;
    }
    queued_.emplace(r.entity, r.priority);
    heap_.push_back(HeapEntry{r.priority, next_seq_++, std::move(r.entity),
                              std::move(r.reason)});
    std::push_heap(heap_.begin(), heap_.end(), heap_less);
    ++accepted_;
    scheduled_counter_.add(1);
    queue_depth_.set(static_cast<double>(queued_.size()));
  }
  cv_.notify_one();
  return true;
}

bool RetrainScheduler::pop_best(RetrainRequest& out) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_less);
    HeapEntry e = std::move(heap_.back());
    heap_.pop_back();
    auto it = queued_.find(e.entity);
    // Stale entry: the entity was reprioritized (a fresher entry carries
    // the live priority) or already dispatched.
    if (it == queued_.end() || it->second != e.priority) continue;
    queued_.erase(it);
    out.entity = std::move(e.entity);
    out.priority = e.priority;
    out.reason = std::move(e.reason);
    return true;
  }
  return false;
}

void RetrainScheduler::worker_loop() {
  for (;;) {
    RetrainRequest r;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !heap_.empty(); });
      if (stop_) return;
      if (!pop_best(r)) continue;
      ++inflight_;
      queue_depth_.set(static_cast<double>(queued_.size()));
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
  idle_cv_.wait(lock,
                [this] { return queued_.empty() && inflight_ == 0; });
}

SchedulerStats RetrainScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats s;
  s.queued = queued_.size();
  s.inflight = inflight_;
  s.accepted = accepted_;
  s.completed = completed_;
  s.rejected_full = rejected_full_;
  s.reprioritized = reprioritized_;
  return s;
}

bool RetrainScheduler::heap_less(const HeapEntry& a, const HeapEntry& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq > b.seq;
}

}  // namespace rptcn::fleet
