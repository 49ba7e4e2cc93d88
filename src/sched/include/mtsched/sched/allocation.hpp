// Allocation phase of two-step mixed-parallel scheduling (paper II-A).
//
// All algorithms share the CPA skeleton (Radulescu & van Gemund 2001):
// start every task at one processor, then repeatedly give one more
// processor to the most promising critical-path task while the critical
// path length T_CP still exceeds the average area
//   T_A = (1/P) * sum_t p_t * tau(t, p_t),
// i.e. while the schedule is still critical-path-bound rather than
// work-bound. The selected task is the one with the largest decrease of
// its time-per-processor ratio
//   gain(t) = tau(t, p_t)/p_t - tau(t, p_t + 1)/(p_t + 1)
// among the critical-path tasks (top + bottom level within a 1e-9
// relative margin of T_CP) that still hold fewer than P processors and
// that the algorithm's growth gate admits. The gain may be zero or
// negative on bumpy cost curves; as in the original CPA, only the
// T_CP/T_A criterion stops growth. tau(t, p) is SchedCost::task_time
// (execution plus startup, so refined cost models automatically
// discourage over-allocation).
//
// The paper's point of comparison is two published remedies for CPA's
// tendency to over-allocate:
//
//   * HCPA (N'takpe, Suter, Casanova 2007): a task may only grow while it
//     still uses the extra processor efficiently; we implement the remedy
//     as a parallel-efficiency gate
//        e(t, p) = tau(t, 1) / (p * tau(t, p)) >= min_efficiency
//     for the grown allocation (default 0.8; at 0.8 the gate binds before
//     CPA's natural stopping point on this workload, so HCPA allocates
//     visibly fewer processors per task, as it does in the paper's
//     figures).
//
//   * MCPA (Bansal, Kumar, Singh 2006): allocation respects the DAG's
//     precedence levels — tasks that can run concurrently share the
//     machine, so the summed allocation within one level never exceeds P.
//
// Exact tie-breaking in the original publications is unspecified; ours is
// deterministic: candidates are scanned in task-id order, and a task
// replaces the running best only if its gain exceeds the best's by more
// than 1e-12. Exact ties therefore go to the smallest id; gains closer
// than 1e-12 are settled by that sequential rule, not by a total order.
//
// Each growth step changes one task's time, and on CPA-shaped growth that
// moves most levels of the DAG (about 3/4 of them on Table-I-shaped
// random DAGs), over n/3 to n/2 steps: the exact allocation is quadratic
// in the number of tasks by construction. The step is therefore built
// for a small constant: the level sweeps walk adjacency rows padded to
// fixed-width chunks, and the candidate scan first compacts the critical
// tasks without branching; allocation.cpp explains why both leave every
// decision bit-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mtsched/dag/dag.hpp"
#include "mtsched/sched/cost.hpp"

namespace mtsched::sched {

/// Interface of the allocation phase: returns the processor count per task.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Computes allocations for all tasks of `g` on a cluster of P
  /// processors. Every returned value is in [1, P].
  virtual std::vector<int> allocate(const dag::Dag& g, const SchedCost& cost,
                                    int P) const = 0;

  virtual std::string name() const = 0;
};

/// The original CPA allocation.
class CpaAllocator final : public Allocator {
 public:
  std::vector<int> allocate(const dag::Dag& g, const SchedCost& cost,
                            int P) const override;
  std::string name() const override { return "CPA"; }
};

/// Heterogeneous CPA specialized to a homogeneous cluster: CPA with a
/// parallel-efficiency gate on allocation growth.
class HcpaAllocator final : public Allocator {
 public:
  explicit HcpaAllocator(double min_efficiency = 0.8);
  std::vector<int> allocate(const dag::Dag& g, const SchedCost& cost,
                            int P) const override;
  std::string name() const override { return "HCPA"; }

 private:
  double min_efficiency_;
};

/// Modified CPA: CPA with per-precedence-level allocation budgets.
class McpaAllocator final : public Allocator {
 public:
  std::vector<int> allocate(const dag::Dag& g, const SchedCost& cost,
                            int P) const override;
  std::string name() const override { return "MCPA"; }
};

/// Baseline: every task runs sequentially (pure task parallelism).
class SerialAllocator final : public Allocator {
 public:
  std::vector<int> allocate(const dag::Dag& g, const SchedCost& cost,
                            int P) const override;
  std::string name() const override { return "SEQ"; }
};

/// Baseline: every task gets the whole machine (pure data parallelism).
class MaxParAllocator final : public Allocator {
 public:
  std::vector<int> allocate(const dag::Dag& g, const SchedCost& cost,
                            int P) const override;
  std::string name() const override { return "MAXPAR"; }
};

/// Factory by name ("CPA", "HCPA", "MCPA", "SEQ", "MAXPAR").
std::unique_ptr<Allocator> make_allocator(const std::string& name);

}  // namespace mtsched::sched
