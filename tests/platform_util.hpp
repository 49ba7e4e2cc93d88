// Test helpers for platforms: the mtsched.platform.v1 writer that the
// parser round trips are checked against, the route latency that the
// simulator charges a transfer between two nodes, and the time a ptask
// takes alone on the cluster.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>

#include "mtsched/platform/parser.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

namespace mtsched::test_util {

/// Serializes a topology to mtsched.platform.v1; runs of identical racks
/// collapse into one section with a count.
inline std::string to_text(const platform::Topology& topo) {
  std::ostringstream os;
  os.precision(17);
  os << platform::kPlatformSchema << '\n';
  os << "name = " << topo.name << '\n';
  os << "[core]\n";
  os << "bandwidth = " << topo.core.bandwidth << '\n';
  os << "latency = " << topo.core.latency << '\n';
  os << "shared = " << (topo.core.shared ? "true" : "false") << '\n';
  for (std::size_t i = 0; i < topo.racks.size();) {
    const platform::RackSpec& r = topo.racks[i];
    std::size_t run = 1;
    while (i + run < topo.racks.size() && topo.racks[i + run] == r) ++run;
    os << "[rack]\n";
    if (run > 1) os << "count = " << run << '\n';
    os << "nodes = " << r.nodes << '\n';
    os << "node_flops = " << r.node_flops << '\n';
    os << "link_bandwidth = " << r.link_bandwidth << '\n';
    os << "link_latency = " << r.link_latency << '\n';
    os << "tor_bandwidth = " << r.tor_bandwidth << '\n';
    os << "tor_latency = " << r.tor_latency << '\n';
    os << "shared_tor = " << (r.shared_tor ? "true" : "false") << '\n';
    os << "oversubscription = " << r.oversubscription << '\n';
    os << "uplink_bandwidth = " << r.uplink_bandwidth << '\n';
    if (!r.node_speeds.empty()) {
      os << "node_speeds =";
      for (double v : r.node_speeds) os << ' ' << v;
      os << '\n';
    }
    i += run;
  }
  return os.str();
}

/// The latency simcore::ClusterLayout charges a transfer from node `a` to
/// node `b` (0 when a == b: a local copy uses no network).
inline double route_latency(const platform::Topology& topo, int a, int b) {
  simcore::ClusterLayout layout(platform::to_cluster(topo));
  simcore::Ptask transfer;
  transfer.host_of_rank = {a, b};
  transfer.flows = {{0, 1, 1.0}};
  return layout.usage(transfer).latency;
}

/// How long `task` takes alone on `layout`'s cluster: the largest weight /
/// capacity over its uses (L07 progress is bound by the bottleneck
/// resource) plus the route latency.
inline double solo_duration(simcore::ClusterLayout& layout,
                            const simcore::Ptask& task) {
  const auto [uses, latency] = layout.usage(task);
  double bottleneck = 0.0;
  for (const auto& u : uses) {
    bottleneck =
        std::max(bottleneck, u.weight / layout.capacities()[u.resource]);
  }
  return bottleneck + latency;
}

}  // namespace mtsched::test_util
