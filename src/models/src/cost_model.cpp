#include "mtsched/models/cost_model.hpp"

#include <algorithm>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/redist/plan.hpp"

namespace mtsched::models {

CostModel::CostModel(platform::ClusterSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

double redist_payload_estimate(const platform::ClusterSpec& spec, int n,
                               int p_src, int p_dst) {
  const auto plan = redist::plan_block_redistribution(n, p_src, p_dst);
  double max_out = 0.0, max_in = 0.0;
  for (int i = 0; i < p_src; ++i) {
    max_out = std::max(max_out, plan.bytes.row_total(static_cast<std::size_t>(i)));
  }
  for (int j = 0; j < p_dst; ++j) {
    max_in = std::max(max_in, plan.bytes.col_total(static_cast<std::size_t>(j)));
  }
  // Placement-blind worst case: source and destination live in different
  // racks, so on a hierarchical platform the whole payload crosses a rack
  // uplink.
  const platform::Topology& topo = spec.topology();
  return topo.flat_network().transfer_time(std::max(max_out, max_in),
                                           plan.total_bytes(),
                                           plan.total_bytes()) +
         topo.max_route_latency();
}

double CostModel::redist_estimate(const dag::Task& producer, int p_src,
                                  int p_dst) const {
  return redist_overhead(p_src, p_dst) +
         redist_payload_estimate(spec_, producer.matrix_dim, p_src, p_dst);
}

}  // namespace mtsched::models
