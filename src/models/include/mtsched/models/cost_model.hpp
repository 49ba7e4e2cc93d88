// Simulator cost models (paper Sections IV, VI and VII).
//
// A cost model answers two families of questions:
//   1. What should the *simulator* charge for a task execution or a
//      redistribution? (task_sim_cost / redist_overhead)
//   2. What does the *scheduler* believe a task or redistribution costs?
//      (exec_estimate / startup_estimate / redist_estimate) — in the paper
//      the scheduler runs inside the simulator, so both views come from
//      the same model.
//
// Three concrete models mirror the paper's three simulator versions:
//   * AnalyticalModel  — flop counts and communication volumes from the
//     algorithmic formulas; no startup, no protocol overhead (Section IV).
//   * ProfileModel     — brute-force measured execution/startup/
//     redistribution-overhead tables (Section VI).
//   * EmpiricalModel   — regressions fitted from sparse measurements
//     (Section VII, Table II).
//
// None of these classes may depend on mtsched::machine — the ground truth
// is only reachable through measurements taken by mtsched::profiling.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mtsched/dag/dag.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/cost.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

namespace mtsched::models {

enum class CostModelKind { Analytical, Profile, Empirical };

const char* kind_name(CostModelKind k);

/// What the simulator charges for one task execution.
///
/// The startup phase is charged as soon as the task's processors are free
/// (it overlaps with inbound redistributions, as in TGrid); the execution
/// phase begins once startup is over and all input data has arrived. The
/// analytical model fills the resource-driven parts (flops per rank and
/// the sparse rank-to-rank flows of the ptask) and has no startup or fixed
/// part; the refined models charge fixed durations (measured/regressed) and
/// leave the resource parts empty.
struct TaskSimCost {
  double startup_seconds = 0.0;  ///< zero under the analytical model
  double fixed_seconds = 0.0;    ///< execution time, when not resource-driven
  std::vector<double> flops_per_rank;
  std::vector<simcore::Flow> flows;

  bool is_fixed() const { return flops_per_rank.empty() && flows.empty(); }
};

class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual CostModelKind kind() const = 0;
  std::string name() const { return kind_name(kind()); }

  /// Simulator charge for executing task t on p processors.
  virtual TaskSimCost task_sim_cost(const dag::Task& t, int p) const = 0;

  /// Fixed protocol overhead the simulator adds before a redistribution's
  /// payload transfer (zero for the analytical model).
  virtual double redist_overhead(int p_src, int p_dst) const = 0;

  /// Scheduler's point estimate of execution time (excluding startup).
  virtual double exec_estimate(const dag::Task& t, int p) const = 0;

  /// Scheduler's point estimate of the startup overhead.
  virtual double startup_estimate(int p) const = 0;

  /// Scheduler's point estimate of a full redistribution (protocol
  /// overhead plus payload transfer on an otherwise idle network, assuming
  /// disjoint processor sets).
  double redist_estimate(const dag::Task& producer, int p_src,
                         int p_dst) const;

  /// Batched estimate curve: fills out[p - 1] with
  /// exec_estimate(t, p) + startup_estimate(p) for p = 1..out.size() in
  /// one virtual call. Table-backed models override this to resolve the
  /// (kernel, n) row once instead of once per p; every entry must be
  /// bit-identical to the scalar sum.
  virtual void task_time_curve(const dag::Task& t,
                               std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const int p = static_cast<int>(i) + 1;
      out[i] = exec_estimate(t, p) + startup_estimate(p);
    }
  }

  /// Batched redistribution curve over p_dst = 1..out.size(); entries are
  /// bit-identical to the scalar redist_estimate.
  void redist_time_curve(const dag::Task& producer, int p_src,
                         std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = redist_estimate(producer, p_src, static_cast<int>(i) + 1);
    }
  }

  const platform::ClusterSpec& spec() const { return spec_; }

 protected:
  explicit CostModel(platform::ClusterSpec spec);

  platform::ClusterSpec spec_;
};

/// Solo-network payload transfer estimate for redistributing `n`-matrix
/// output from p_src to p_dst processors on `spec` (bottleneck-link
/// formula, disjoint node sets assumed).
double redist_payload_estimate(const platform::ClusterSpec& spec, int n,
                               int p_src, int p_dst);

/// Adapter exposing a CostModel as the scheduling algorithms' SchedCost.
class SchedCostAdapter final : public sched::SchedCost {
 public:
  explicit SchedCostAdapter(const CostModel& model) : model_(model) {}

  double exec_time(const dag::Task& t, int p) const override {
    return model_.exec_estimate(t, p);
  }
  double startup_time(int p) const override {
    return model_.startup_estimate(p);
  }
  double redist_time(const dag::Task& producer, int p_src,
                     int p_dst) const override {
    return model_.redist_estimate(producer, p_src, p_dst);
  }
  double redist_overhead_time(int p_src, int p_dst) const override {
    return model_.redist_overhead(p_src, p_dst);
  }
  void task_time_curve(const dag::Task& t,
                       std::span<double> out) const override {
    model_.task_time_curve(t, out);
  }
  void redist_time_curve(const dag::Task& producer, int p_src,
                         std::span<double> out) const override {
    model_.redist_time_curve(producer, p_src, out);
  }

 private:
  const CostModel& model_;
};

}  // namespace mtsched::models
