// The simulator front-end: replays a schedule on the discrete-event engine
// under a given cost model and reports the simulated makespan and trace.
//
// Replay semantics (simcore's replay lifecycle, shared with the execution
// framework; this front end supplies only the cost model's phase costs):
//   * a task seizes its processors when all tasks preceding it in any of
//     its processors' orders have finished;
//   * a redistribution starts when its producer finishes: the model's
//     protocol overhead (zero for the analytical model) elapses first,
//     then the payload is transferred through the simulated network as a
//     communication-only parallel task (contention included);
//   * a task begins executing when it has its processors and all inbound
//     redistributions are done; its execution is either a fluid parallel
//     task (analytical model: flop vector + ring flow list) or a fixed
//     duration (profile/empirical models: measured/regressed time plus
//     startup overhead);
//   * the makespan is the completion time of the last task.
//
// run(g, s) and makespan(g, s) compile a simcore::ReplayPlan and replay it
// once on the calling thread's simcore::thread_runner(); run(runner, plan)
// replays a shared plan on the caller's runner. The simulator holds no
// mutable state: threads share it, each with a runner.
//
// The simulator is deterministic: no randomness exists in any cost model.
#pragma once

#include "mtsched/dag/dag.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/schedule.hpp"
#include "mtsched/sched/trace.hpp"
#include "mtsched/simcore/replay.hpp"

namespace mtsched::sim {

class Simulator {
 public:
  /// `model` must outlive the simulator. The platform spec is taken from
  /// the model (cost models are platform-bound). When `trace` is a live
  /// track, replay spans and engine events go there; when disabled (the
  /// default), each run() falls back to the calling thread's
  /// obs::current_track().
  explicit Simulator(const models::CostModel& model, obs::Track trace = {});

  /// Simulates one schedule replay. Validates the schedule first.
  sched::RunTrace run(const dag::Dag& g, const sched::Schedule& s) const;

  /// Simulates `plan` on `runner`; the trace is the runner's, valid until
  /// its next run(). Throws core::InvalidArgument when the plan was
  /// compiled for a platform other than the model's spec().
  sched::RunTrace& run(simcore::ReplayRunner& runner,
                       const simcore::ReplayPlan& plan) const;

  /// Convenience: simulated makespan only.
  double makespan(const dag::Dag& g, const sched::Schedule& s) const;

 private:
  const models::CostModel& model_;
  obs::Track trace_;
};

}  // namespace mtsched::sim
