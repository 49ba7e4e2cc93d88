#include "mtsched/platform/topology.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>

#include "mtsched/core/error.hpp"

namespace mtsched::platform {

double RackSpec::effective_uplink_bandwidth() const {
  if (uplink_bandwidth > 0.0) return uplink_bandwidth;
  return static_cast<double>(nodes) * link_bandwidth / oversubscription;
}

int Topology::num_nodes() const {
  std::int64_t n = 0;
  for (const auto& r : racks) {
    n += r.nodes;
    MTSCHED_REQUIRE(n <= INT_MAX, "topology has more than INT_MAX nodes");
  }
  return static_cast<int>(n);
}

int Topology::rack_of(int node) const {
  MTSCHED_REQUIRE(node >= 0, "node out of range");
  int base = 0;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    base += racks[r].nodes;
    if (node < base) return static_cast<int>(r);
  }
  throw core::InvalidArgument("node out of range");
}

int Topology::first_node_of(int rack) const {
  MTSCHED_REQUIRE(rack >= 0 && rack < num_racks(), "rack out of range");
  int base = 0;
  for (int r = 0; r < rack; ++r) base += racks[static_cast<std::size_t>(r)].nodes;
  return base;
}

double Topology::flops_of(int node) const {
  const int rack = rack_of(node);
  const auto& r = racks[static_cast<std::size_t>(rack)];
  if (r.node_speeds.empty()) return r.node_flops;
  const int local = node - first_node_of(rack);
  return r.node_speeds[static_cast<std::size_t>(local)];
}

double Topology::max_route_latency() const {
  double worst = 0.0;
  for (std::size_t a = 0; a < racks.size(); ++a) {
    if (racks[a].nodes > 1) {
      worst = std::max(worst,
                       2.0 * racks[a].link_latency + racks[a].tor_latency);
    }
    for (std::size_t b = 0; b < racks.size(); ++b) {
      if (a == b) continue;
      worst = std::max(worst, racks[a].link_latency + racks[a].tor_latency +
                                  core.latency + racks[b].tor_latency +
                                  racks[b].link_latency);
    }
  }
  if (worst == 0.0 && !racks.empty()) {
    // Single-node platform: keep the star convention (the intra-rack
    // route) so estimators still charge a finite latency term.
    worst = 2.0 * racks[0].link_latency + racks[0].tor_latency;
  }
  return worst;
}

double Topology::min_uplink_bandwidth() const {
  MTSCHED_REQUIRE(!racks.empty(), "topology needs at least one rack");
  double lo = racks[0].effective_uplink_bandwidth();
  for (const auto& r : racks) {
    lo = std::min(lo, r.effective_uplink_bandwidth());
  }
  return lo;
}

double FlatNetwork::transfer_time(double link_bytes, double fabric_bytes,
                                  double uplink_bytes) const {
  double t = link_bytes / link_bandwidth;
  if (shared_fabric) t = std::max(t, fabric_bytes / fabric_bandwidth);
  if (uplink_bandwidth > 0.0) t = std::max(t, uplink_bytes / uplink_bandwidth);
  return t;
}

FlatNetwork Topology::flat_network() const {
  MTSCHED_REQUIRE(!racks.empty(), "topology needs at least one rack");
  const RackSpec& r0 = racks.front();
  FlatNetwork net;
  net.link_bandwidth = r0.link_bandwidth;
  if (reduces_to_star()) {
    net.fabric_bandwidth = r0.tor_bandwidth;
    net.shared_fabric = r0.shared_tor;
  } else {
    net.fabric_bandwidth = core.bandwidth;
    net.shared_fabric = core.shared;
    net.uplink_bandwidth = min_uplink_bandwidth();
  }
  return net;
}

void Topology::validate() const {
  MTSCHED_REQUIRE(!racks.empty(), "topology needs at least one rack");
  for (const auto& r : racks) {
    MTSCHED_REQUIRE(r.nodes >= 1, "rack needs at least one node");
    MTSCHED_REQUIRE(r.node_flops > 0.0, "node speed must be positive");
    MTSCHED_REQUIRE(r.link_bandwidth > 0.0, "link bandwidth must be positive");
    MTSCHED_REQUIRE(r.link_latency >= 0.0, "link latency must be >= 0");
    MTSCHED_REQUIRE(r.tor_bandwidth > 0.0, "ToR bandwidth must be positive");
    MTSCHED_REQUIRE(r.tor_latency >= 0.0, "ToR latency must be >= 0");
    MTSCHED_REQUIRE(r.oversubscription > 0.0,
                    "oversubscription ratio must be positive");
    MTSCHED_REQUIRE(r.uplink_bandwidth >= 0.0,
                    "uplink bandwidth must be >= 0 (0 = derived)");
    if (!r.node_speeds.empty()) {
      MTSCHED_REQUIRE(r.node_speeds.size() ==
                          static_cast<std::size_t>(r.nodes),
                      "rack node_speeds must have one entry per node");
      for (double s : r.node_speeds) {
        MTSCHED_REQUIRE(s > 0.0, "node speeds must be positive");
      }
    }
  }
  MTSCHED_REQUIRE(core.bandwidth > 0.0, "core bandwidth must be positive");
  MTSCHED_REQUIRE(core.latency >= 0.0, "core latency must be >= 0");
  (void)num_nodes();  // throws past INT_MAX
}

ClusterSpec to_cluster(const Topology& topo) {
  topo.validate();
  ClusterSpec spec(std::make_shared<const Topology>(topo));
  spec.num_nodes = topo.num_nodes();
  return spec;
}

Topology one_rack(std::string name, RackSpec rack) {
  Topology topo;
  topo.name = std::move(name);
  topo.core.bandwidth = rack.tor_bandwidth;
  topo.core.latency = rack.tor_latency;
  topo.core.shared = rack.shared_tor;
  topo.racks.push_back(std::move(rack));
  return topo;
}

Topology hierarchical_topology(int num_racks, int nodes_per_rack,
                               double oversubscription,
                               const ClusterSpec& base) {
  MTSCHED_REQUIRE(num_racks >= 1, "need at least one rack");
  MTSCHED_REQUIRE(nodes_per_rack >= 1, "need at least one node per rack");
  Topology topo;
  topo.name = "hier" + std::to_string(num_racks) + "x" +
              std::to_string(nodes_per_rack);
  RackSpec rack = base.topology().racks.front();
  rack.nodes = nodes_per_rack;
  rack.node_speeds.clear();
  rack.oversubscription = oversubscription;
  rack.uplink_bandwidth = 0.0;
  topo.racks.assign(static_cast<std::size_t>(num_racks), rack);
  topo.core = base.topology().core;
  topo.validate();
  return topo;
}

std::optional<ClusterSpec> named_platform(const std::string& name) {
  if (name == "bayreuth32") return bayreuth32();
  if (name == "cray_xt4") return cray_xt4();
  if (name == "hier1x32") {
    return to_cluster(hierarchical_topology(1, 32, 1.0));
  }
  if (name == "hier2x16") {
    return to_cluster(hierarchical_topology(2, 16, 1.0));
  }
  if (name == "hier4x8") {
    return to_cluster(hierarchical_topology(4, 8, 4.0));
  }
  return std::nullopt;
}

std::vector<std::string> named_platform_names() {
  return {"bayreuth32", "cray_xt4", "hier1x32", "hier2x16", "hier4x8"};
}

}  // namespace mtsched::platform
