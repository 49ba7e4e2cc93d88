#include "mtsched/exp/service.hpp"

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

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
    batches_counter_ = &mreg->counter("service.batches");
    batched_counter_ = &mreg->counter("service.batched_requests");
    batch_size_ = &mreg->histogram("service.batch_size");
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

  Pending pending;
  pending.req = std::move(req);
  pending.done = std::move(done);
  pending.admitted_at = Clock::now();
  if (sink_ != nullptr) {
    pending.track = sink_->track(
        "request " +
        std::to_string(next_request_id_.fetch_add(1,
                                                  std::memory_order_relaxed)));
  }
  {
    std::unique_lock lock(pending_mutex_);
    pending_.push_back(std::move(pending));
  }
  pool_.submit([this] { drain(); });
  return true;
}

void Service::drain() {
  // Sweep whatever is pending into this worker's batch. Under light load
  // that is exactly the one request whose submit scheduled this drain;
  // under backlog the first free worker takes the whole queue (capped)
  // and the drains scheduled by the swept requests find it empty.
  std::vector<Pending> batch;
  {
    std::unique_lock lock(pending_mutex_);
    const std::size_t take = std::min(
        pending_.size(), std::max<std::size_t>(1, cfg_.max_batch));
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
  }
  if (batch.empty()) return;

  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  std::uint64_t seen = max_batch_.load(std::memory_order_relaxed);
  while (seen < batch.size() &&
         !max_batch_.compare_exchange_weak(seen, batch.size(),
                                           std::memory_order_relaxed)) {
  }
  if (batches_counter_ != nullptr) batches_counter_->add();
  if (batched_counter_ != nullptr) batched_counter_->add(batch.size());
  if (batch_size_ != nullptr) {
    batch_size_->observe(static_cast<double>(batch.size()));
  }

  Session::BatchScope scope(session_);
  for (Pending& p : batch) {
    ScheduleResponse resp;
    {
      const obs::ScopedContext ctx(
          p.track, sink_ != nullptr ? sink_->metrics() : nullptr);
      const obs::Span span(p.track, "service", "request");
      resp = scope.run(p.req);
    }
    if (latency_ != nullptr) {
      latency_->observe(
          std::chrono::duration<double>(Clock::now() - p.admitted_at)
              .count());
    }
    if (completed_ != nullptr) completed_->add();
    // The slot frees only after the response is delivered: queue_limit
    // bounds admitted-but-unfinished requests, including ones blocked on
    // a slow consumer.
    p.done(resp);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
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

ServiceBatchStats Service::batch_stats() const {
  ServiceBatchStats s;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mtsched::exp
