// Shared internals of the ready-queue list schedulers (ListMapper, MHEFT,
// HeteroListMapper).
//
// All three walk the same structure: rank tasks by decreasing bottom
// level, then repeatedly place the highest-ranked task whose predecessors
// are all placed. The naive form rescans the whole priority list per
// placement (O(T^2)); here readiness is tracked by predecessor counts and
// the next task comes from a min-heap keyed by list rank, which pops
// exactly the task the rescan would have picked, in O(log W) for W
// concurrently ready tasks.
//
// This header holds only that list machinery. Each scheduler reads its
// cost estimates from a CostCurveTable bound to its DAG
// (mtsched/sched/cost.hpp).
#pragma once

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "mtsched/core/arena.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/dag/dag.hpp"

namespace mtsched::sched::detail {

/// Computation-only bottom levels (bl[t] = tau[t] + max bl over
/// successors), evaluated over the Dag's cached topological order and CSR
/// adjacency, successors folded in edge insertion order. The result lives
/// in the caller's arena scope.
inline std::span<double> bottom_levels(const dag::Dag& g,
                                       std::span<const double> tau,
                                       core::Arena& arena) {
  const auto topo = g.topology();
  auto bl = arena.make_span<double>(g.num_tasks());
  for (auto it = topo.order.rbegin(); it != topo.order.rend(); ++it) {
    const dag::TaskId t = *it;
    double b = tau[t];
    for (std::size_t e = topo.succ_offsets[t]; e < topo.succ_offsets[t + 1];
         ++e) {
      b = std::max(b, tau[t] + bl[topo.succs[e]]);
    }
    bl[t] = b;
  }
  return bl;
}

/// List priorities: decreasing bottom level, ties by task id. The id
/// tie-break makes the comparator a strict total order, so plain sort
/// yields the unique stable ranking. The result lives in the caller's
/// arena scope.
inline std::span<const dag::TaskId> priority_order(
    std::span<const double> bl, core::Arena& arena) {
  auto order = arena.make_span<dag::TaskId>(bl.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](dag::TaskId a, dag::TaskId b) {
    if (bl[a] != bl[b]) return bl[a] > bl[b];
    return a < b;
  });
  return order;
}

/// Indegree-tracked ready queue over a fixed priority list. pop() returns
/// the first task in priority order whose predecessors have all been
/// marked placed — the same selection as rescanning the list, without the
/// rescan. All state is arena-backed; the heap is reserved to the task
/// count up front so the queue never allocates after construction.
class ReadyQueue {
 public:
  ReadyQueue(const dag::Dag& g, std::span<const dag::TaskId> priority,
             core::Arena& arena)
      : topo_(g.topology()),
        priority_(priority),
        rank_(arena.make_span<std::size_t>(priority.size())),
        waiting_preds_(arena.make_span<std::size_t>(priority.size())),
        heap_(arena) {
    const std::size_t n = priority.size();
    heap_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) rank_[priority[r]] = r;
    for (dag::TaskId t = 0; t < n; ++t) {
      waiting_preds_[t] = topo_.pred_offsets[t + 1] - topo_.pred_offsets[t];
      if (waiting_preds_[t] == 0) push(rank_[t]);
    }
  }

  /// Highest-priority dependency-ready task. Throws if none is ready
  /// although unplaced tasks remain (cannot happen on an acyclic graph).
  dag::TaskId pop() {
    MTSCHED_INVARIANT(!heap_.empty(),
                      "no ready task although tasks remain (cycle?)");
    const dag::TaskId t = priority_[heap_[0]];
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    return t;
  }

  /// Marks `t` placed, releasing successors whose predecessors are now
  /// all placed into the queue.
  void mark_placed(dag::TaskId t) {
    for (std::size_t e = topo_.succ_offsets[t]; e < topo_.succ_offsets[t + 1];
         ++e) {
      const dag::TaskId s = topo_.succs[e];
      if (--waiting_preds_[s] == 0) push(rank_[s]);
    }
  }

 private:
  void push(std::size_t rank) {
    heap_.push_back(rank);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  dag::Dag::TopologyView topo_;
  std::span<const dag::TaskId> priority_;
  std::span<std::size_t> rank_;
  std::span<std::size_t> waiting_preds_;
  // Min-heap over ranks (std::*_heap with greater<>), identical pop order
  // to the std::priority_queue it replaces.
  core::ArenaVector<std::size_t> heap_;
};

}  // namespace mtsched::sched::detail
