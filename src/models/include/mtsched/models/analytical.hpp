// The purely analytical cost model (paper Section IV).
//
// Execution: each of the p processors performs flops(kernel, n)/p floating
// point operations. The 1-D parallel matrix multiplication additionally
// exchanges one local column block (n^2/p elements) per step for p - 1
// steps, modelled as a ring communication pattern in the parallel task's
// flow list (rank r sends to rank (r + 1) mod p). Matrix additions perform
// no communication.
//
// No startup overhead and no redistribution protocol overhead exist in
// this model — precisely the omissions the paper shows to be fatal.
#pragma once

#include "mtsched/models/cost_model.hpp"

namespace mtsched::models {

class AnalyticalModel final : public CostModel {
 public:
  explicit AnalyticalModel(platform::ClusterSpec spec);

  CostModelKind kind() const override { return CostModelKind::Analytical; }

  TaskSimCost task_sim_cost(const dag::Task& t, int p) const override;
  double redist_overhead(int p_src, int p_dst) const override;
  double exec_estimate(const dag::Task& t, int p) const override;
  double startup_estimate(int p) const override;

  /// Bytes each rank forwards around the ring during a 1-D multiplication
  /// on p processors ((p-1) * n^2/p elements); 0 for additions or p = 1.
  static double ring_bytes(dag::TaskKernel k, int n, int p);
};

}  // namespace mtsched::models
