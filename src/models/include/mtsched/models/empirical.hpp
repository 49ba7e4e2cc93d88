// The empirical (regression-based) cost model (paper Section VII,
// Table II).
//
// Execution times follow the paper's piecewise form — a/p + b in the
// speedup regime (p <= 16) and c*p + d in the overhead-dominated regime
// (p > 16); matrix additions use the hyperbolic branch only. Startup
// overhead and redistribution protocol overhead are linear regressions in
// p and p_dst respectively. All fits are built from sparse measurements by
// profiling::RegressionBuilder (the paper uses p = {2,4,7,15} plus
// {15,24,31}, avoiding the outliers at 8 and 16).
#pragma once

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "mtsched/models/cost_model.hpp"
#include "mtsched/stats/regression.hpp"

namespace mtsched::models {

/// Fitted regressions; built by profiling::RegressionBuilder or by hand.
struct EmpiricalFits {
  /// Piecewise execution-time model per (kernel, n).
  std::map<std::pair<dag::TaskKernel, int>, stats::PiecewiseFit> exec;
  /// Startup overhead: linear a*p + b.
  stats::Fit startup;
  /// Redistribution protocol overhead: linear a*p_dst + b.
  stats::Fit redist;
};

class EmpiricalModel final : public CostModel {
 public:
  /// Throws core::InvalidArgument if no execution fit is present.
  EmpiricalModel(platform::ClusterSpec spec, EmpiricalFits fits);

  // Non-copyable: exec_index_ entries point into fits_.
  EmpiricalModel(const EmpiricalModel&) = delete;
  EmpiricalModel& operator=(const EmpiricalModel&) = delete;

  CostModelKind kind() const override { return CostModelKind::Empirical; }

  TaskSimCost task_sim_cost(const dag::Task& t, int p) const override;
  double redist_overhead(int p_src, int p_dst) const override;
  double exec_estimate(const dag::Task& t, int p) const override;
  double startup_estimate(int p) const override;
  void task_time_curve(const dag::Task& t,
                       std::span<double> out) const override;


 private:
  const stats::PiecewiseFit& exec_fit(dag::TaskKernel k, int n) const;

  EmpiricalFits fits_;
  /// Per-kernel (n, fit) index over fits_.exec, sorted by n — the same
  /// flat lookup scheme as ProfileModel::exec_index_.
  std::array<std::vector<std::pair<int, const stats::PiecewiseFit*>>,
             dag::kNumKernels>
      exec_index_;
};

}  // namespace mtsched::models
