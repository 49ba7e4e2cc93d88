// A FIFO single-server queue on top of the engine. Jobs are served one at a
// time in arrival order; each job holds the server for its service time.
// Used by the TGrid emulator's subnet manager, where every redistribution
// must register with a single component and registrations serialize.
//
// The queue is a flat vector consumed from the front and the completion of
// the job in service is held by the server, so a warmed-up server serves
// jobs without heap allocation.
#pragma once

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

  /// Drops every job; pair with Engine::reset().
  void reset();

 private:
  struct Job {
    double service_time;
    CompletionFn done;
  };

  void start_next();
  void finish_service(double now);

  Engine& engine_;
  Tag job_tag_;
  std::vector<Job> queue_;  ///< arrival order; [0, head_) already served
  std::size_t head_ = 0;
  CompletionFn in_service_;  ///< `done` of the job being served
  bool busy_ = false;
};

}  // namespace mtsched::simcore
