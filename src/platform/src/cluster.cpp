#include "mtsched/platform/cluster.hpp"

#include <algorithm>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/core/units.hpp"
#include "mtsched/platform/topology.hpp"

namespace mtsched::platform {

ClusterSpec::ClusterSpec() {
  static const ClusterSpec paper = bayreuth32();
  *this = paper;
}

ClusterSpec::ClusterSpec(std::shared_ptr<const Topology> topology)
    : topology_(std::move(topology)) {}

const std::string& ClusterSpec::name() const { return topology_->name; }

double ClusterSpec::reference_flops() const {
  return topology_->racks.front().node_flops;
}

bool ClusterSpec::heterogeneous() const {
  const double ref = reference_flops();
  for (const auto& r : topology_->racks) {
    if (r.node_flops != ref || !r.node_speeds.empty()) return true;
  }
  return false;
}

double ClusterSpec::flops_of(int node_id) const {
  MTSCHED_REQUIRE(node_id >= 0 && node_id < num_nodes, "node out of range");
  return topology_->flops_of(node_id);
}

double ClusterSpec::total_flops() const {
  if (!heterogeneous()) return reference_flops() * num_nodes;
  double sum = 0.0;
  for (int n = 0; n < num_nodes; ++n) sum += topology_->flops_of(n);
  return sum;
}

void ClusterSpec::validate() const {
  topology_->validate();
  MTSCHED_REQUIRE(topology_->num_nodes() == num_nodes,
                  "topology node count must match num_nodes");
}

bool ClusterSpec::operator==(const ClusterSpec& other) const {
  return num_nodes == other.num_nodes &&
         (topology_ == other.topology_ || *topology_ == *other.topology_);
}

ClusterSpec bayreuth32(int num_nodes, double node_flops) {
  RackSpec rack;
  rack.nodes = num_nodes;
  rack.node_flops = node_flops;  // Java matrix-multiply calibration (paper IV)
  rack.link_bandwidth = core::bps_to_Bps(1e9);  // 1 Gb/s
  rack.link_latency = core::usec(100.0);
  // GigE switch fabric: ample but finite aggregate capacity.
  rack.tor_bandwidth = 16.0 * core::bps_to_Bps(1e9);
  rack.tor_latency = 0.0;
  rack.shared_tor = true;
  return to_cluster(one_rack("bayreuth32", std::move(rack)));
}

ClusterSpec cray_xt4(int num_nodes) {
  RackSpec rack;
  rack.nodes = num_nodes;
  rack.node_flops = 4165.3e6;  // PDGEMM rate measured on Franklin (paper VI-A)
  rack.link_bandwidth = 6.4e9;  // SeaStar2 injection bandwidth, bytes/s
  rack.link_latency = core::usec(8.0);
  rack.tor_bandwidth = 1e12;
  rack.tor_latency = 0.0;
  rack.shared_tor = false;
  return to_cluster(one_rack("cray_xt4", std::move(rack)));
}

double exec_slowdown(const ClusterSpec& spec, const std::vector<int>& nodes) {
  MTSCHED_REQUIRE(!nodes.empty(), "node set must be non-empty");
  if (!spec.heterogeneous()) return 1.0;
  double s_min = spec.flops_of(nodes.front());
  for (int n : nodes) s_min = std::min(s_min, spec.flops_of(n));
  return spec.reference_flops() / s_min;
}

ClusterSpec heterogeneous_cluster(int num_nodes, double min_flops,
                                  double max_flops, std::uint64_t seed) {
  MTSCHED_REQUIRE(num_nodes >= 1, "cluster needs at least one node");
  MTSCHED_REQUIRE(min_flops > 0.0 && min_flops <= max_flops,
                  "speed range must satisfy 0 < min <= max");
  RackSpec rack = bayreuth32(num_nodes).topology().racks.front();
  core::Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < num_nodes; ++i) {
    const double s = rng.uniform(min_flops, max_flops);
    rack.node_speeds.push_back(s);
    sum += s;
  }
  rack.node_flops = sum / num_nodes;  // reference speed = mean
  return to_cluster(
      one_rack("hetero" + std::to_string(num_nodes), std::move(rack)));
}

}  // namespace mtsched::platform
