#include "mtsched/simcore/fifo.hpp"

#include "mtsched/core/error.hpp"

namespace mtsched::simcore {

FifoServer::FifoServer(Engine& engine, Tag job_tag)
    : engine_(engine), job_tag_(job_tag) {}

void FifoServer::enqueue(double service_time, CompletionFn done) {
  MTSCHED_REQUIRE(service_time >= 0.0, "service time must be >= 0");
  queue_.push_back(Job{service_time, std::move(done)});
  if (!busy_) start_next();
}

void FifoServer::reset() {
  queue_.clear();
  head_ = 0;
  in_service_ = nullptr;
  busy_ = false;
}

void FifoServer::start_next() {
  if (head_ == queue_.size()) {
    queue_.clear();  // keeps the capacity
    head_ = 0;
    busy_ = false;
    return;
  }
  busy_ = true;
  Job& job = queue_[head_++];
  in_service_ = std::move(job.done);
  engine_.submit_timer(
      job.service_time, [this](double t) { finish_service(t); }, job_tag_);
}

void FifoServer::finish_service(double now) {
  // Moved out first: `done` may enqueue, which must not see it in service.
  const CompletionFn done = std::move(in_service_);
  in_service_ = nullptr;
  if (done) done(now);
  start_next();
}

}  // namespace mtsched::simcore
