// A FIFO single-server queue on top of the engine. Jobs are served one at a
// time in arrival order; each job holds the server for its service time.
// Used by the TGrid emulator's subnet manager, where every redistribution
// must register with a single component and registrations serialize.
//
// The queue is a flat vector consumed from the front and the completion of
// the job in service is held by the server, so a warmed-up server serves
// jobs without heap allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "mtsched/simcore/engine.hpp"

namespace mtsched::simcore {

class FifoServer {
 public:
  /// Service timers are submitted with `job_tag` (their trace name).
  explicit FifoServer(Engine& engine, Tag job_tag = {});

  /// Enqueues a job with the given service time; `done` fires when the job
  /// finishes service (arrival order is service order).
  void enqueue(double service_time, CompletionFn done);

  /// Drops every job and the statistics; pair with Engine::reset().
  void reset();

  std::size_t queue_length() const { return queue_.size() - head_; }
  bool busy() const { return busy_; }
  std::uint64_t jobs_served() const { return served_; }

  /// Total time jobs spent waiting before service began (queueing delay).
  double total_wait_time() const { return total_wait_; }

 private:
  struct Job {
    double service_time;
    double arrival;
    CompletionFn done;
  };

  void start_next(double now);
  void finish_service(double now);

  Engine& engine_;
  Tag job_tag_;
  std::vector<Job> queue_;  ///< arrival order; [0, head_) already served
  std::size_t head_ = 0;
  CompletionFn in_service_;  ///< `done` of the job being served
  bool busy_ = false;
  std::uint64_t served_ = 0;
  double total_wait_ = 0.0;
};

}  // namespace mtsched::simcore
