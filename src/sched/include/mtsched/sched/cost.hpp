// Cost oracle consulted by the scheduling algorithms.
//
// In the paper the schedulers run *inside the simulator* and therefore see
// the world through whatever cost model the simulator uses (analytical,
// profile-based or empirical). This interface is that lens; adapters over
// the concrete simulator cost models live in mtsched::models.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/dag.hpp"

namespace mtsched::sched {

/// Every estimate below may read a task only through its shape, the
/// (kernel, matrix_dim) pair: two tasks of one shape get bit-identical
/// answers. CostCurveTable memoizes on that key and serves one task's
/// answers to every same-shaped task of its DAG.
class SchedCost {
 public:
  virtual ~SchedCost() = default;

  /// Estimated execution time of task t on p processors (excluding task
  /// startup overhead). Must be positive for all 1 <= p <= P.
  virtual double exec_time(const dag::Task& t, int p) const = 0;

  /// Estimated task startup overhead for an allocation of p processors
  /// (zero under the purely analytical model).
  virtual double startup_time(int p) const = 0;

  /// Estimated time to redistribute `producer`'s output matrix from p_src
  /// to p_dst processors (payload plus protocol overhead, as far as the
  /// model knows about either).
  virtual double redist_time(const dag::Task& producer, int p_src,
                             int p_dst) const = 0;

  /// The protocol-overhead share of redist_time (zero under the purely
  /// analytical model). Redistribution-aware mapping discounts the payload
  /// share when processor sets overlap, but never the protocol share.
  virtual double redist_overhead_time(int p_src, int p_dst) const {
    (void)p_src;
    (void)p_dst;
    return 0.0;
  }

  /// Total per-task time the allocation phase reasons about.
  double task_time(const dag::Task& t, int p) const {
    return exec_time(t, p) + startup_time(p);
  }

  /// Batched task-time curve: fills out[p - 1] with task_time(t, p) for
  /// p = 1..out.size() in one virtual call. Every entry must be
  /// bit-identical to the scalar task_time — overriding models may only
  /// batch the lookup, never change the arithmetic. CostCurveTable fills
  /// each shape's task row with one such call.
  virtual void task_time_curve(const dag::Task& t,
                               std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = task_time(t, static_cast<int>(i) + 1);
    }
  }

  /// Batched redistribution curve over the destination size: fills
  /// out[p - 1] with redist_time(producer, p_src, p) for
  /// p = 1..out.size(). Same bit-identity contract as task_time_curve.
  virtual void redist_time_curve(const dag::Task& producer, int p_src,
                                 std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = redist_time(producer, p_src, static_cast<int>(i) + 1);
    }
  }
};

/// The one memo of scheduler estimates: a table over a base SchedCost for
/// processor counts 1..P, bound to one DAG. It interns every task's
/// (kernel, matrix_dim) shape up front and fills each distinct shape's
/// task row with one task_time_curve call; redistribution entries are
/// filled per (shape, p_src, p_dst) cell on first scalar use (a prefix
/// curve query fills a p_dst sweep at once) and overhead values per
/// (p_src, p_dst). Every value is resolved against the base model once
/// and then served from the table, however many tasks share the shape.
/// Every allocator and mapper builds one over the cost it receives; the
/// dense task -> shape index turns the TaskId queries below into array
/// loads.
///
/// Correctness rests on the SchedCost shape-purity and curve
/// bit-identity contracts, so served values are bit-identical to direct
/// base-model calls. Every query rejects p outside [1, P] with
/// core::InvalidArgument. Not thread-safe: one table per thread.
class CostCurveTable {
 public:
  /// `base` and `g` must outlive the table; `P` bounds every processor
  /// count the table will be asked about.
  CostCurveTable(const SchedCost& base, int P, const dag::Dag& g);

  /// task_time(t, 1..P).
  std::span<const double> task_row(dag::TaskId t) const {
    return {task_rows_.data() + shape_of_task_[t] * procs_, procs_};
  }
  /// task_time(t, p). Inline: the allocators' growth loops call it per
  /// candidate.
  double tau(dag::TaskId t, int p) const {
    check_p(p);
    return task_rows_[shape_of_task_[t] * procs_ +
                      static_cast<std::size_t>(p - 1)];
  }
  /// redist_time(q, p_src, p_dst), filled on first use.
  double redist(dag::TaskId q, int p_src, int p_dst) const;
  /// redist_time(q, p_src, 1..len), filled with one redist_time_curve
  /// call unless every entry is already known. The span stays valid as
  /// long as the table.
  std::span<const double> redist_curve(dag::TaskId q, int p_src,
                                       std::size_t len) const;
  /// redist_overhead_time(p_src, p_dst), filled on first use.
  double redist_overhead_time(int p_src, int p_dst) const;

 private:
  double* redist_row(dag::TaskId q, int p_src) const;
  void check_p(int p) const {
    MTSCHED_REQUIRE(p >= 1 && static_cast<std::size_t>(p) <= procs_,
                    "processor count outside the cost table's [1, P]");
  }

  const SchedCost& base_;
  std::size_t procs_;
  const dag::Dag& dag_;
  std::vector<std::uint32_t> shape_of_task_;  ///< task -> dense shape index
  // Flat arrays, indexed [shape][p - 1], [shape][p_src - 1][p_dst - 1]
  // and [p_src - 1][p_dst - 1]; NaN marks an entry not yet filled. The
  // last two are sized on first use: allocators never ask for them.
  std::vector<double> task_rows_;
  mutable std::vector<double> redist_;
  mutable std::vector<double> overhead_;
};

}  // namespace mtsched::sched
