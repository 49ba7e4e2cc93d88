// Schedule replay core, shared by the simulator (sim::Simulator) and the
// execution-framework emulator (tgrid::TGridEmulator).
//
// Both replays walk the same TGrid task lifecycle; they differ only in
// what each phase costs. The core owns the lifecycle:
//   * a task seizes its processors (its startup phase begins) once every
//     task preceding it in any of its processors' orders has finished;
//   * when a task finishes, each of its output redistributions is
//     requested: the protocol overhead elapses first, then the payload is
//     transferred through the cluster as a communication-only ptask (the
//     block redistribution plan), contention included;
//   * a task executes once its startup is over and all inbound
//     redistributions are done;
//   * every stamp of the RunTrace, and the makespan (the completion time
//     of the last task).
// The front end supplies a ReplayPolicy: one hook per phase cost, each
// submitting its own activity, plus the one sequencing difference.
//
// Release order is fixed, so replays are deterministic: processor-order
// successors are released by ascending task id, output and input
// redistributions by DAG edge index.
#pragma once

#include <cstddef>
#include <functional>

#include "mtsched/dag/dag.hpp"
#include "mtsched/sched/schedule.hpp"
#include "mtsched/sched/trace.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

namespace mtsched::simcore {

/// The phase costs of one replay. Each hook starts its phase for one task
/// or edge and calls `done` exactly once, with the completion time, when
/// the phase is over (immediately, with the current time, for a phase
/// that takes no time).
struct ReplayPolicy {
  /// Startup of task `t`, which has just seized its processors.
  std::function<void(dag::TaskId t, CompletionFn done)> startup;
  /// Execution of task `t`, which has all of its inputs.
  std::function<void(dag::TaskId t, CompletionFn done)> execute;
  /// Protocol overhead of DAG edge `edge` before its payload transfer.
  std::function<void(std::size_t edge, CompletionFn done)> overhead;
  /// When true, a redistribution is requested only once its consumer's
  /// startup is over too (TGrid: the consumer's processes must exist to
  /// register with the subnet manager). When false, it is requested as
  /// soon as its producer finishes.
  bool transfer_waits_for_consumer = false;
};

/// Replays a validated schedule on `cluster`, running its engine until it
/// drains. Throws core::InternalError if some task never finished.
sched::RunTrace replay(const dag::Dag& g, const sched::Schedule& s,
                       ClusterSim& cluster, const ReplayPolicy& policy);

}  // namespace mtsched::simcore
