#include "serve/engine.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace rptcn::serve {

void EngineOptions::validate() const {
  RPTCN_CHECK(max_batch >= 1, "EngineOptions.max_batch must be >= 1, got "
                                  << max_batch);
  RPTCN_CHECK(tenant.find_first_of("{}=") == std::string::npos,
              "EngineOptions.tenant must not contain '{', '}' or '=': \""
                  << tenant << "\"");
}

BatchingEngine::BatchingEngine(EngineOptions options)
    : options_(std::move(options)),
      requests_(obs::metrics().counter("serve/requests", options_.tenant)),
      batches_(obs::metrics().counter("serve/batches", options_.tenant)),
      queue_depth_(obs::metrics().gauge("serve/queue_depth", options_.tenant)),
      batch_size_(
          obs::metrics().histogram("serve/batch_size", options_.tenant)),
      queue_wait_(obs::metrics().histogram("serve/queue_wait_seconds",
                                           options_.tenant)),
      forward_time_(
          obs::metrics().histogram("serve/forward_seconds", options_.tenant)) {
  options_.validate();
  if (options_.workers == 0) options_.workers = 1;
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

BatchingEngine::~BatchingEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<Tensor> BatchingEngine::submit(
    Tensor window, std::shared_ptr<const InferenceSession> session) {
  std::vector<WaveRequest> one;
  one.push_back({std::move(window), std::move(session)});
  return std::move(enqueue(std::move(one), /*held=*/true).front());
}

std::vector<std::future<Tensor>> BatchingEngine::submit_wave(
    std::vector<WaveRequest> wave) {
  return enqueue(std::move(wave), /*held=*/false);
}

std::vector<std::future<Tensor>> BatchingEngine::enqueue(
    std::vector<WaveRequest> requests, bool held) {
  for (const WaveRequest& r : requests) {
    RPTCN_CHECK(r.session != nullptr,
                "BatchingEngine: every request needs a session");
    RPTCN_CHECK(r.window.rank() == 2,
                "BatchingEngine expects one window [F,T] per request, got "
                    << r.window.shape_string());
  }
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::future<Tensor>> futures;
  futures.reserve(requests.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RPTCN_CHECK(!stop_, "BatchingEngine: submit after shutdown began");
    for (WaveRequest& r : requests) {
      Pending& p = queue_.emplace_back();
      p.window = std::move(r.window);
      p.enqueued = now;
      p.session = std::move(r.session);
      p.held = held;
      futures.push_back(p.promise.get_future());
    }
    submitted_ += requests.size();
    queue_depth_.set(static_cast<double>(queue_.size()));
  }
  requests_.add(requests.size());
  cv_.notify_all();
  return futures;
}

EngineStats BatchingEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats s;
  s.queued = queue_.size();
  s.in_flight = in_flight_;
  s.submitted = submitted_;
  s.completed = completed_;
  s.batches = batches_run_;
  return s;
}

void BatchingEngine::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain-on-shutdown: exit only once the queue is empty.
      if (queue_.empty()) return;
      if (!stop_ && queue_.front().held &&
          queue_.size() < options_.max_batch) {
        // Hold a submit() head up to max_delay_us while peers arrive; a
        // wave's caller already sent every peer it has.
        const auto deadline =
            queue_.front().enqueued +
            std::chrono::microseconds(options_.max_delay_us);
        cv_.wait_until(lock, deadline, [this] {
          return stop_ || queue_.size() >= options_.max_batch;
        });
        if (queue_.empty()) continue;  // another worker took everything
      }
      // Coalesce every queued request that shares the head's session and
      // shape, in queue order: one shard's queue interleaves every cohort
      // hashed to it, so a run from the head alone would split a cohort
      // into single-row forwards. The requests skipped on the way slide up
      // to keep their order, and the scan stops at a full batch, so a
      // single-session queue costs what popping the batch off its front
      // does.
      const std::vector<std::size_t> shape = queue_.front().window.shape();
      const InferenceSession* pinned = queue_.front().session.get();
      auto kept = queue_.begin();
      auto it = queue_.begin();
      for (; it != queue_.end() && batch.size() < options_.max_batch; ++it) {
        if (it->session.get() == pinned && it->window.shape() == shape) {
          batch.push_back(std::move(*it));
        } else {
          if (kept != it) *kept = std::move(*it);
          ++kept;
        }
      }
      queue_.erase(kept, it);
      in_flight_ += batch.size();
      queue_depth_.set(static_cast<double>(queue_.size()));
    }
    run_batch(batch);
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_ -= batch.size();
    completed_ += batch.size();
    ++batches_run_;
  }
}

void BatchingEngine::run_batch(std::vector<Pending>& batch) {
  // Every request of the batch pinned this session; the batch keeps it
  // alive until the worker drops the batch.
  const InferenceSession& session = *batch.front().session;
  const auto picked_up = std::chrono::steady_clock::now();
  for (const Pending& p : batch)
    queue_wait_.record(
        std::chrono::duration<double>(picked_up - p.enqueued).count());
  try {
    const std::size_t bsz = batch.size();
    const std::size_t f = batch.front().window.dim(0);
    const std::size_t t = batch.front().window.dim(1);
    Tensor input({bsz, f, t});
    const std::size_t stride = f * t;
    for (std::size_t i = 0; i < bsz; ++i)
      std::copy_n(batch[i].window.raw(), stride, input.raw() + i * stride);

    Tensor out;
    {
      obs::TraceSpan span("serve/batch");
      obs::ScopedTimer timer(forward_time_);
      // Count as a coarse job so concurrent batch forwards collapse nested
      // OpenMP instead of oversubscribing the cores.
      ActiveJobScope job;
      out = session.run(input);
    }
    RPTCN_CHECK(out.rank() == 2 && out.dim(0) == bsz,
                "serving forward returned " << out.shape_string()
                                            << " for batch of " << bsz);
    const std::size_t horizon = out.dim(1);
    for (std::size_t i = 0; i < bsz; ++i) {
      Tensor row({horizon});
      std::copy_n(out.raw() + i * horizon, horizon, row.raw());
      batch[i].promise.set_value(std::move(row));
    }
    batches_.add(1);
    batch_size_.record(static_cast<double>(bsz));
  } catch (...) {
    // Deliver the failure to every request of this batch. Promises already
    // satisfied (scatter had started) are left as-is.
    const std::exception_ptr err = std::current_exception();
    for (Pending& p : batch) {
      try {
        p.promise.set_exception(err);
      } catch (const std::future_error&) {
      }
    }
  }
}

}  // namespace rptcn::serve
