// BatchingEngine: micro-batching request queue in front of
// InferenceSessions.
//
// Concurrent single-window requests are coalesced into one batched forward
// over the N dimension (the im2col conv path and the fused LSTM gate GEMM
// both amortise with N). Each request pins the session that serves it and
// gets a future that delivers that request's row of the batched output —
// bit-identical to running the window alone, because every kernel the
// session's forward runs sums each output in an order that does not depend
// on the batch size (serve/session.h).
//
// One hold rule. The worker holds the request at the head of the queue for
// up to max_delay_us while peers arrive, and fires it early once max_batch
// requests are queued; with max_delay_us = 0 it never waits. submit()
// enqueues one request; submit_wave() enqueues a group under one lock and
// one notify, from a caller that has already gathered every peer it will
// send. A fleet sets max_delay_us = 0 on every shard's engine, since its
// workers send whole waves.
//
// Threading model: both entry points may be called from any thread. One
// engine thread pops coalesced batches under one mutex; a batch is every
// queued request (up to max_batch, in queue order) that shares the head
// request's session and window shape, so one engine multiplexes any number
// of models and requests sharing a session batch together even when other
// sessions' requests sit between them in the queue. Each batch forward
// runs inside an ActiveJobScope so a batch beside a fit or a pool task
// gates nested OpenMP exactly like ThreadPool jobs do. A batch failure
// (e.g. a feature-count mismatch) is delivered to every future of that
// batch; other batches are unaffected. The destructor stops intake, drains
// every queued request, then joins.
//
// Installing a new model is the caller's business: requests carry their
// session by shared_ptr, so a caller that replaces its session pointer has
// every later request answered by the new weights while requests already
// queued finish on the session they pinned.
//
// Observability: serve/requests + serve/batches counters,
// serve/queue_depth gauge, serve/batch_size, serve/queue_wait_seconds and
// serve/forward_seconds histograms, and a "serve/batch" trace span around
// each batched forward.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/session.h"

namespace rptcn::serve {

struct EngineOptions {
  std::size_t max_batch = 32;     ///< largest coalesced batch
  /// How long the worker holds the head of the queue while peers arrive;
  /// 0 runs every batch as soon as the worker is free.
  std::size_t max_delay_us = 200;
  /// Metrics tenant label: serve/* metrics register as
  /// "serve/<metric>{tenant=<tenant>}" so N engines (fleet shards) never sum
  /// or clobber each other. Empty keeps the historical unlabeled names —
  /// the single-engine default.
  std::string tenant;

  /// Throws common::CheckError naming the offending field. Called by the
  /// engine constructor; callers hand-building options can validate early.
  void validate() const;
};

/// Point-in-time engine state, for backpressure observation without
/// scraping metrics JSON.
struct EngineStats {
  std::size_t queued = 0;         ///< requests waiting for the worker
  std::size_t in_flight = 0;      ///< requests inside a running batch
  std::uint64_t submitted = 0;    ///< requests ever accepted
  std::uint64_t completed = 0;    ///< requests delivered (value or error)
  std::uint64_t batches = 0;      ///< batches run
};

/// One request of a wave: a window [F, T] and the session that serves it.
struct WaveRequest {
  Tensor window;
  std::shared_ptr<const InferenceSession> session;
};

class BatchingEngine {
 public:
  explicit BatchingEngine(EngineOptions options = {});
  /// Stops intake, drains every queued request, joins the worker. Futures
  /// obtained from submit() or submit_wave() always complete.
  ~BatchingEngine();
  BatchingEngine(const BatchingEngine&) = delete;
  BatchingEngine& operator=(const BatchingEngine&) = delete;

  /// Enqueue one window [F, T] served by `session`: the one-request wave.
  /// The future delivers the forecast [horizon] or rethrows the batch's
  /// failure. Throws if the engine is stopping, `session` is null or the
  /// window is not rank 2.
  std::future<Tensor> submit(Tensor window,
                             std::shared_ptr<const InferenceSession> session);

  /// Enqueue every request of `wave` under one lock. futures[i] delivers
  /// wave[i]'s forecast. Validates every request before it enqueues any:
  /// throws, enqueuing nothing, if the engine is stopping or any request
  /// has a null session or a window that is not rank 2.
  std::vector<std::future<Tensor>> submit_wave(std::vector<WaveRequest> wave);

  /// Queue depth, in-flight count and totals.
  EngineStats stats() const;

  const EngineOptions& options() const { return options_; }

 private:
  struct Pending {
    Tensor window;
    std::promise<Tensor> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<const InferenceSession> session;
  };

  void worker_loop();
  /// Runs one coalesced batch on the session its requests share.
  void run_batch(std::vector<Pending>& batch);

  EngineOptions options_;

  // Registry handles are process-lifetime stable; resolved once here.
  obs::Counter& requests_;
  obs::Counter& batches_;
  obs::Gauge& queue_depth_;
  obs::Histogram& batch_size_;
  obs::Histogram& queue_wait_;
  obs::Histogram& forward_time_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;      ///< guarded by mutex_
  std::uint64_t submitted_ = 0;    ///< guarded by mutex_
  std::uint64_t completed_ = 0;    ///< guarded by mutex_
  std::uint64_t batches_run_ = 0;  ///< guarded by mutex_
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace rptcn::serve
