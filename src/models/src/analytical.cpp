#include "mtsched/models/analytical.hpp"

#include <algorithm>
#include <cstdint>

#include "mtsched/core/error.hpp"
#include "mtsched/core/units.hpp"
#include "mtsched/platform/topology.hpp"

namespace mtsched::models {

AnalyticalModel::AnalyticalModel(platform::ClusterSpec spec)
    : CostModel(std::move(spec)) {}

double AnalyticalModel::ring_bytes(dag::TaskKernel k, int n, int p) {
  if (k != dag::TaskKernel::MatMul || p <= 1) return 0.0;
  const double nd = static_cast<double>(n);
  return static_cast<double>(p - 1) * (nd * nd / static_cast<double>(p)) *
         core::kElemBytes;
}

TaskSimCost AnalyticalModel::task_sim_cost(const dag::Task& t, int p) const {
  MTSCHED_REQUIRE(p >= 1 && p <= spec_.num_nodes, "allocation out of range");
  TaskSimCost cost;
  const double per_rank =
      dag::kernel_flops(t.kernel, t.matrix_dim) / static_cast<double>(p);
  cost.flops_per_rank.assign(static_cast<std::size_t>(p), per_rank);
  const double rb = ring_bytes(t.kernel, t.matrix_dim, p);
  if (rb > 0.0) {
    // The PDGEMM ring: rank r sends to rank (r + 1) mod p.
    const auto np = static_cast<std::uint32_t>(p);
    cost.flows.reserve(np);
    for (std::uint32_t r = 0; r < np; ++r) {
      cost.flows.push_back(simcore::Flow{r, (r + 1) % np, rb});
    }
  }
  return cost;
}

double AnalyticalModel::redist_overhead(int p_src, int p_dst) const {
  (void)p_src;
  (void)p_dst;
  return 0.0;  // the analytical model knows nothing of the subnet manager
}

double AnalyticalModel::exec_estimate(const dag::Task& t, int p) const {
  MTSCHED_REQUIRE(p >= 1 && p <= spec_.num_nodes, "allocation out of range");
  const double comp = dag::kernel_flops(t.kernel, t.matrix_dim) /
                      static_cast<double>(p) / spec_.reference_flops();
  const double rb = ring_bytes(t.kernel, t.matrix_dim, p);
  if (rb <= 0.0) return comp;
  // Placement-blind: on a hierarchical platform a ring hop may cross the
  // slowest rack uplink.
  const double comm = spec_.topology().flat_network().transfer_time(
      rb, rb * static_cast<double>(p), rb);
  // L07 semantics: computation and communication overlap fully. The
  // latency term is the worst route the placement could use.
  return std::max(comp, comm) + spec_.topology().max_route_latency();
}

double AnalyticalModel::startup_estimate(int p) const {
  (void)p;
  return 0.0;  // no startup exists in the analytical world
}

}  // namespace mtsched::models
