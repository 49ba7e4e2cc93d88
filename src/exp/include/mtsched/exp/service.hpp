// The scheduling service: a Session fronted by a worker pool with
// admission control and a dynamic micro-batcher — what `mtsched serve`
// runs behind its socket, usable in-process by benches and tests without
// any transport.
//
// Requests are admitted up to a bounded number in flight (queued +
// executing); beyond that submit() rejects immediately with an
// Overloaded (429) response instead of queueing without bound — a busy
// daemon stays responsive and callers get an actionable signal to back
// off.
//
// Admitted requests land in a pending queue drained by core::ThreadPool
// workers in dynamic micro-batches: each drain takes *everything*
// pending (up to max_batch) and serves it through one
// Session::BatchScope, so compatible requests — same platform and cost
// model — share one sched::CostCurveTable per batch. The flush policy is
// "batch whatever is ready, never wait on a timer": an idle service
// serves each request alone with no added latency, while a saturated
// service coalesces the backlog that piled up behind the busy workers.
// Responses stay byte-identical to sequential Session::run calls (the
// BatchScope contract).
//
// Observation goes through the usual obs::Sink: one trace lane per
// request, service.{accepted,rejected,completed,batches,
// batched_requests} counters, a service.batch_size histogram and a
// service.latency_seconds histogram (admission to delivery, queue time
// included).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "mtsched/core/thread_pool.hpp"
#include "mtsched/exp/session.hpp"
#include "mtsched/obs/sink.hpp"

namespace mtsched::exp {

struct ServiceConfig {
  /// Worker threads. 0 means "one per hardware thread"
  /// (core::ThreadPool::recommended_threads()), matching
  /// CampaignSpec::threads semantics; negative values clamp to 1.
  int threads = 0;

  /// Maximum requests in flight (queued + executing + delivering their
  /// response). submit() beyond this rejects with Overloaded.
  std::size_t queue_limit = 64;

  /// Most requests one drain coalesces into a single micro-batch
  /// (clamped below by 1). Bounds the delivery latency of the last
  /// request in a batch under backlog; the queue_limit bounds the
  /// backlog itself.
  std::size_t max_batch = 16;
};

/// Cumulative micro-batcher statistics (monotone counters except
/// max_batch, readable live).
struct ServiceBatchStats {
  std::uint64_t batches = 0;           ///< non-empty drains
  std::uint64_t batched_requests = 0;  ///< requests served through drains
  std::uint64_t max_batch = 0;         ///< largest single batch so far
};

/// Thread-safe service façade over one Session. Submitting threads and
/// pool workers may race freely; the destructor drains in-flight work.
class Service {
 public:
  /// Response delivery callback. Runs on a pool worker after the request
  /// finished (or failed in-band); must not throw and must not submit
  /// further requests from within (core::ThreadPool tasks may not spawn
  /// tasks).
  using Done = std::function<void(const ScheduleResponse&)>;

  /// `lab` must outlive the service. `sink` (optional, must also outlive
  /// the service) observes requests.
  explicit Service(const Lab& lab, ServiceConfig cfg = {},
                   obs::Sink* sink = nullptr);

  /// Registers an additional platform lab with the session (see
  /// Session::add_platform). Call before submitting any request — the
  /// registry is not synchronized with serving. `lab` must outlive the
  /// service.
  void add_platform(const Lab& lab) { session_.add_platform(lab); }

  /// Drains outstanding requests, then joins the workers.
  ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admission-controlled asynchronous submit. Returns true when the
  /// request was admitted (`done` will fire exactly once, on a worker);
  /// false when admission control rejected it (`done` never fires — send
  /// reject_response() to the caller instead).
  bool submit(ScheduleRequest req, Done done);

  /// Blocking convenience: submit, wait, return the response — or the
  /// Overloaded response when admission rejects. Safe from any thread
  /// that is not a pool worker.
  ScheduleResponse call(const ScheduleRequest& req);

  /// The 429 response a rejected submit maps to.
  ScheduleResponse reject_response() const;

  int threads() const { return pool_.size(); }
  std::size_t queue_limit() const { return cfg_.queue_limit; }

  /// Requests admitted but not yet finished (approximate under races).
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  ServiceBatchStats batch_stats() const;

  const Session& session() const { return session_; }

 private:
  /// One admitted request waiting in the pending queue.
  struct Pending {
    ScheduleRequest req;
    Done done;
    obs::Track track;
    std::chrono::steady_clock::time_point admitted_at;
  };

  /// Pool task: serve whatever is pending (up to max_batch) through one
  /// BatchScope. One drain is scheduled per admitted request, so every
  /// request has a worker coming for it; drains that find the queue
  /// empty (an earlier drain swept their request into its batch) return
  /// immediately.
  void drain();

  const ServiceConfig cfg_;
  Session session_;
  obs::Sink* sink_;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Counter* batched_counter_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Histogram* latency_ = nullptr;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> max_batch_{0};
  std::mutex pending_mutex_;
  std::deque<Pending> pending_;
  core::ThreadPool pool_;  ///< last member: joins before the rest dies
};

}  // namespace mtsched::exp
