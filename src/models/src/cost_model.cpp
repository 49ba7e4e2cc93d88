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
  // One pass over the list: a block plan's src and dst are both
  // non-decreasing, so each rank's messages form one contiguous run whose
  // running sum reaches its row (column) total in list order.
  double max_out = 0.0, max_in = 0.0, run_out = 0.0, run_in = 0.0;
  int src = -1, dst = -1;
  for (const redist::Message& m : plan.messages) {
    if (m.src != src) {
      src = m.src;
      run_out = 0.0;
    }
    if (m.dst != dst) {
      dst = m.dst;
      run_in = 0.0;
    }
    run_out += m.bytes;
    run_in += m.bytes;
    max_out = std::max(max_out, run_out);
    max_in = std::max(max_in, run_in);
  }
  const double total = plan.total_bytes();
  // Placement-blind worst case: source and destination live in different
  // racks, so on a hierarchical platform the whole payload crosses a rack
  // uplink.
  const platform::Topology& topo = spec.topology();
  return topo.flat_network().transfer_time(std::max(max_out, max_in), total,
                                           total) +
         topo.max_route_latency();
}

double CostModel::redist_estimate(const dag::Task& producer, int p_src,
                                  int p_dst) const {
  return redist_overhead(p_src, p_dst) +
         redist_payload_estimate(spec_, producer.matrix_dim, p_src, p_dst);
}

}  // namespace mtsched::models
