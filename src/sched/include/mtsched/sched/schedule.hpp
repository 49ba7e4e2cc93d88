// Schedule representation (the contract between scheduler, simulator and
// execution framework).
//
// A schedule fixes, for every task, the concrete set of processors it runs
// on and, for every processor, the order in which it serves its tasks. The
// est_* times are the *scheduler's* predictions under its cost model; the
// simulator and the execution framework re-derive actual times, keeping
// only the processor assignments and per-processor orders (paper Section V:
// "the computed schedule specifies the order in which the tasks must be
// executed as well as the processors used for each task").
#pragma once

#include <span>
#include <vector>

#include "mtsched/dag/dag.hpp"

namespace mtsched::sched {

/// Placement and predicted timing of one task.
struct TaskPlacement {
  std::vector<int> procs;   ///< distinct node ids, size >= 1
  double est_start = 0.0;   ///< predicted by the scheduler's cost model
  double est_finish = 0.0;
};

struct Schedule {
  std::vector<TaskPlacement> placements;        ///< indexed by TaskId
  std::vector<std::vector<dag::TaskId>> proc_order;  ///< per node id
  double est_makespan = 0.0;

  const TaskPlacement& placement(dag::TaskId t) const;

  /// Allocation sizes per task (convenience).
  std::vector<int> allocation() const;
};

/// Structural validation of a schedule against its DAG and cluster size:
///   * every task is placed on 1..P distinct in-range processors;
///   * per-processor orders contain exactly the tasks placed there;
///   * est times are consistent: tasks sharing a processor do not overlap
///     and no task starts before a predecessor finishes;
///   * the per-processor orders are acyclic when combined with the DAG
///     (replay cannot deadlock).
/// Throws core::InvalidArgument with a description of the first violation.
void validate_schedule(const dag::Dag& g, const Schedule& s, int num_procs);

/// The combined precedence relation used during replay: DAG edges plus
/// consecutive pairs in every processor order. Returns one linearization;
/// throws if the combination has a cycle (deadlock).
std::vector<dag::TaskId> replay_order(const dag::Dag& g, const Schedule& s);

/// Flat per-task lists (CSR): task t's list is items[off[t] .. off[t + 1]).
struct TaskLists {
  std::vector<std::size_t> off;  ///< size num_tasks + 1
  std::vector<dag::TaskId> items;

  std::span<const dag::TaskId> operator[](dag::TaskId t) const {
    return {items.data() + off[t], off[t + 1] - off[t]};
  }
};

/// For every task, the distinct tasks that immediately precede it on at
/// least one of its processors (its "order predecessors"), ascending. A
/// task may seize its processors once all of these have finished; replay
/// engines count these plus inbound data dependencies.
TaskLists order_predecessors(const dag::Dag& g, const Schedule& s);

}  // namespace mtsched::sched
