// The scheduling service: a Session fronted by a worker pool with
// admission control — what `mtsched serve` runs behind its socket, usable
// in-process by benches and tests without any transport.
//
// Requests are admitted up to a bounded number in flight (queued +
// executing); beyond that submit() rejects immediately with an
// Overloaded (429) response instead of queueing without bound — a busy
// daemon stays responsive and callers get an actionable signal to back
// off.
//
// Every admitted request is its own core::ThreadPool task: the first free
// worker runs it through Session::run and delivers its response, so a
// burst spreads over every idle worker. Responses are byte-identical to
// sequential Session::run calls.
//
// Observation goes through the usual obs::Sink: one trace lane per
// request, service.{accepted,rejected,completed} counters and a
// service.latency_seconds histogram (admission to delivery, queue time
// included).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
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

  const Session& session() const { return session_; }

 private:
  const ServiceConfig cfg_;
  Session session_;
  obs::Sink* sink_;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Histogram* latency_ = nullptr;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> next_request_id_{0};
  core::ThreadPool pool_;  ///< last member: joins before the rest dies
};

}  // namespace mtsched::exp
