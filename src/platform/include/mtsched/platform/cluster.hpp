// Cluster platform description (paper Sections II-B and IV).
//
// A ClusterSpec is a flat view (node count, node speeds) over the one
// network description, a platform::Topology, which every spec carries. The
// paper's clusters are stars: one rack of nodes, each with a private
// full-duplex link into the rack's switch, whose fabric may itself be a
// shared resource. The paper's instance: 32 nodes, compute speed
// calibrated to 250 MFlop/s (Java matrix multiply on a 2 GHz Opteron 246),
// Gigabit Ethernet (1 Gb/s links, 100 us latency).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mtsched::platform {

struct Topology;  // racks, ToR switches and core (topology.hpp)

/// One compute node.
struct NodeSpec {
  double flops = 250e6;  ///< effective compute speed, flop/s
};

/// A cluster; homogeneous by default, heterogeneous when per-node speeds
/// are given. Built from a Topology by platform::to_cluster, which keeps
/// the flat fields consistent with it.
struct ClusterSpec {
  /// The paper's platform, bayreuth32().
  ClusterSpec();

  std::string name;
  int num_nodes = 0;
  NodeSpec node;  ///< the reference node (every node when homogeneous)
  /// Optional per-node speeds (flop/s). Empty = homogeneous at node.flops;
  /// otherwise must have num_nodes entries. node.flops remains the
  /// *reference* speed used by virtual-cluster scheduling.
  std::vector<double> node_speeds;

  /// The network: racks of nodes behind ToR switches joined by a core. A
  /// star is a one-rack topology.
  const Topology& topology() const { return *topology_; }

  bool heterogeneous() const { return !node_speeds.empty(); }

  /// Speed of one node (reference speed when homogeneous).
  double flops_of(int node_id) const;

  /// Aggregate, slowest and fastest speeds across the cluster.
  double total_flops() const;
  double min_flops() const;
  double max_flops() const;

  /// Throws core::InvalidArgument unless all fields are physical and the
  /// node count matches the topology's.
  void validate() const;

  /// Field by field, the topology by value: equal specs wire the same
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
