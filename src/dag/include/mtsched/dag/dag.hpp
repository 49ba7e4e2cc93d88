// Mixed-parallel application model (paper Section II).
//
// An application is a DAG of *moldable* data-parallel tasks: each task can
// run on any number of processors p within [1, P]. In the case study the
// tasks are dense matrix additions and multiplications on n-by-n matrices
// with a vanilla 1-D column-block distribution; an edge t -> u means u
// consumes the n-by-n matrix produced by t, which generally requires a data
// redistribution between the (different) processor sets of t and u.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mtsched::dag {

using TaskId = std::uint32_t;
inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);

/// Computational kernel executed by a task.
enum class TaskKernel {
  MatMul,  ///< C = A * B, 2 n^3 flops sequentially
  MatAdd,  ///< C = A + B, repeated n/4 times per paper Section IV-1
};

const char* kernel_name(TaskKernel k);

/// Number of distinct TaskKernel values (for dense per-kernel tables).
inline constexpr std::size_t kNumKernels = 2;

/// Sequential flop count of a kernel on n-by-n matrices, including the
/// paper's n/4 repetition factor for additions (Section IV-1).
double kernel_flops(TaskKernel k, int n);

/// One moldable task.
struct Task {
  TaskId id = kInvalidTask;
  TaskKernel kernel = TaskKernel::MatMul;
  int matrix_dim = 0;  ///< n: operates on and produces n-by-n matrices
  std::string name;
};

/// A data-dependency edge: `dst` consumes the matrix produced by `src`.
struct Edge {
  TaskId src = kInvalidTask;
  TaskId dst = kInvalidTask;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable-after-build task graph with adjacency in both directions.
///
/// Derived topology (topological order, precedence levels, level count) is
/// computed once on first use and cached; add_task()/add_edge() invalidate
/// the cache. First-use computation is thread-safe — concurrent schedulers
/// may share one const Dag — but mutation must not race with readers (the
/// same contract the cache-free implementation had).
class Dag {
 public:
  Dag() = default;
  Dag(const Dag& other);
  Dag(Dag&& other) noexcept;
  Dag& operator=(const Dag& other);
  Dag& operator=(Dag&& other) noexcept;

  /// Adds a task with the given kernel and matrix dimension; returns its id.
  TaskId add_task(TaskKernel kernel, int matrix_dim, std::string name = {});

  /// Adds the dependency edge src -> dst. Rejects self-loops, unknown ids
  /// and duplicate edges. Cycles are rejected lazily by validate().
  void add_edge(TaskId src, TaskId dst);

  std::size_t num_tasks() const { return tasks_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  const Task& task(TaskId id) const;
  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<Edge>& edges() const { return edges_; }

  const std::vector<TaskId>& predecessors(TaskId id) const;

  /// Tasks with no predecessors / no successors.
  std::vector<TaskId> entry_tasks() const;
  std::vector<TaskId> exit_tasks() const;

  /// Topological order (Kahn). Throws core::InvalidArgument on cycles.
  /// The reference stays valid until the next add_task()/add_edge().
  const std::vector<TaskId>& topological_order() const;

  /// Flat CSR view over the adjacency plus the topological positions,
  /// cached together with the topological order. Edge targets appear in
  /// each task's edge insertion order (that of predecessors()), so
  /// reductions over them see identical operands in identical order.
  /// All references stay valid until the next add_task()/add_edge().
  struct TopologyView {
    const std::vector<TaskId>& order;            ///< topological order
    const std::vector<std::size_t>& positions;   ///< task -> index in order
    const std::vector<std::size_t>& pred_offsets;  ///< size num_tasks + 1
    const std::vector<TaskId>& preds;            ///< flat predecessor lists
    const std::vector<std::size_t>& succ_offsets;  ///< size num_tasks + 1
    const std::vector<TaskId>& succs;            ///< flat successor lists
  };
  TopologyView topology() const;

  /// Precedence level of every task: entry tasks are level 0, any other
  /// task is 1 + max level over its predecessors. Used by MCPA. The
  /// reference stays valid until the next add_task()/add_edge().
  const std::vector<int>& precedence_levels() const;

  /// Number of distinct precedence levels.
  int num_levels() const;

  /// Throws if the graph has a cycle; no-op otherwise.
  void validate() const;

 private:
  /// Lazily computed derived topology, shared between Dag copies (it only
  /// depends on the immutable structure it was computed from).
  struct TopoCache {
    std::vector<TaskId> order;
    std::vector<std::size_t> positions;
    std::vector<std::size_t> pred_off, succ_off;
    std::vector<TaskId> pred_flat, succ_flat;
    std::vector<int> levels;
    int num_levels = 0;
  };

  const TopoCache& topo() const;

  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
  std::vector<std::vector<TaskId>> preds_;
  std::vector<std::vector<TaskId>> succs_;

  mutable std::mutex topo_mu_;
  mutable std::shared_ptr<const TopoCache> topo_cache_;
};

}  // namespace mtsched::dag
