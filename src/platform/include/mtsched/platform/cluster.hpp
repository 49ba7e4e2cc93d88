// Cluster platform description (paper Sections II-B and IV).
//
// A ClusterSpec is a read-only view over the one network description, a
// platform::Topology, which every spec carries: its name, node speeds and
// aggregate speed are read from the racks. The paper's clusters are stars:
// one rack of nodes, each with a private full-duplex link into the rack's
// switch, whose fabric may itself be a shared resource. The paper's
// instance: 32 nodes, compute speed calibrated to 250 MFlop/s (Java matrix
// multiply on a 2 GHz Opteron 246), Gigabit Ethernet (1 Gb/s links,
// 100 us latency).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mtsched::platform {

struct Topology;  // racks, ToR switches and core (topology.hpp)

/// A cluster, built from a Topology by platform::to_cluster.
struct ClusterSpec {
  /// The paper's platform, bayreuth32().
  ClusterSpec();

  /// The topology's node count, cached by to_cluster; validate() checks
  /// that the two still agree.
  int num_nodes = 0;

  /// The network: racks of nodes behind ToR switches joined by a core. A
  /// star is a one-rack topology.
  const Topology& topology() const { return *topology_; }

  /// The topology's name, which requests select a platform by.
  const std::string& name() const;

  /// Rack 0's node speed: the speed virtual-cluster scheduling and the
  /// placement-blind estimators count every processor at.
  double reference_flops() const;

  /// True when some rack has per-node speeds or a speed other than
  /// rack 0's.
  bool heterogeneous() const;

  /// Speed of one node.
  double flops_of(int node_id) const;

  /// Aggregate speed across the cluster.
  double total_flops() const;

  /// Throws core::InvalidArgument unless the topology is physical and
  /// num_nodes matches its node count.
  void validate() const;

  /// The node count and the topology by value: equal specs wire the same
  /// resources and cost every task the same.
  bool operator==(const ClusterSpec& other) const;

 private:
  friend ClusterSpec to_cluster(const Topology& topo);
  explicit ClusterSpec(std::shared_ptr<const Topology> topology);

  std::shared_ptr<const Topology> topology_;  ///< never null
};

/// The paper's experimental platform: University of Bayreuth cluster, a
/// GigE star of N = 32 nodes at 250 MFlop/s effective. A machine model
/// calibrated to another node count or speed gets the same star resized;
/// it keeps the name, which is what requests select a platform by.
ClusterSpec bayreuth32(int num_nodes = 32, double node_flops = 250e6);

/// The paper's second platform (Figure 2 right): Cray XT4 "Franklin" at
/// LBNL, PDGEMM runs at 4165.3 MFLOPS per core; SeaStar interconnect
/// approximated as a star with a non-blocking switch.
ClusterSpec cray_xt4(int num_nodes = 64);

/// Slowdown factor of a data-parallel task on the given node set relative
/// to the same allocation size on reference-speed nodes: with an equal
/// 1-D partition every member works at the pace of the slowest node, so
/// the factor is reference_speed / min_speed(set). 1.0 on homogeneous
/// clusters (and for faster-than-reference sets the factor is < 1).
double exec_slowdown(const ClusterSpec& spec, const std::vector<int>& nodes);

/// A synthetic heterogeneous cluster: node speeds drawn uniformly from
/// [min_flops, max_flops] (deterministic in `seed`); the reference speed
/// is their mean. The network is bayreuth32's star. Models the aggregated
/// lab clusters HCPA targets.
ClusterSpec heterogeneous_cluster(int num_nodes, double min_flops,
                                  double max_flops, std::uint64_t seed = 1);

}  // namespace mtsched::platform
