#include "mtsched/exp/service.hpp"

#include <chrono>
#include <future>
#include <utility>

namespace mtsched::exp {

namespace {
using Clock = std::chrono::steady_clock;
}

Service::Service(const Lab& lab, ServiceConfig cfg, obs::Sink* sink)
    : cfg_(cfg),
      session_(lab),
      sink_(sink),
      pool_(cfg.threads == 0 ? core::ThreadPool::recommended_threads()
                             : cfg.threads) {
  obs::MetricsRegistry* mreg = sink_ != nullptr ? sink_->metrics() : nullptr;
  if (mreg != nullptr) {
    accepted_ = &mreg->counter("service.accepted");
    rejected_ = &mreg->counter("service.rejected");
    completed_ = &mreg->counter("service.completed");
    latency_ = &mreg->histogram("service.latency_seconds");
  }
}

bool Service::submit(ScheduleRequest req, Done done) {
  // Optimistically claim a slot; back out when the claim oversubscribes.
  // Two racing submits for the last slot cannot both win: each sees its
  // own fetch_add result.
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      cfg_.queue_limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (rejected_ != nullptr) rejected_->add();
    return false;
  }
  if (accepted_ != nullptr) accepted_->add();

  obs::Track track;
  if (sink_ != nullptr) {
    track = sink_->track(
        "request " +
        std::to_string(next_request_id_.fetch_add(1,
                                                  std::memory_order_relaxed)));
  }
  pool_.submit([this, req = std::move(req), done = std::move(done), track,
                admitted_at = Clock::now()] {
    ScheduleResponse resp;
    {
      const obs::ScopedContext ctx(
          track, sink_ != nullptr ? sink_->metrics() : nullptr);
      const obs::Span span(track, "service", "request");
      resp = session_.run(req);
    }
    if (latency_ != nullptr) {
      latency_->observe(
          std::chrono::duration<double>(Clock::now() - admitted_at).count());
    }
    if (completed_ != nullptr) completed_->add();
    // The slot frees only after the response is delivered: queue_limit
    // bounds admitted-but-unfinished requests, including ones blocked on
    // a slow consumer.
    done(resp);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  });
  return true;
}

ScheduleResponse Service::call(const ScheduleRequest& req) {
  std::promise<ScheduleResponse> delivered;
  auto response = delivered.get_future();
  const bool admitted = submit(req, [&delivered](const ScheduleResponse& r) {
    delivered.set_value(r);
  });
  if (!admitted) return reject_response();
  return response.get();
}

ScheduleResponse Service::reject_response() const {
  ScheduleResponse resp;
  resp.status = ServiceStatus::Overloaded;
  resp.message = "service overloaded: admission control rejected the "
                 "request (queue limit " +
                 std::to_string(cfg_.queue_limit) + "); retry later";
  return resp;
}

}  // namespace mtsched::exp
