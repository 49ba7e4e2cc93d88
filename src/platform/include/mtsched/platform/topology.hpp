// Hierarchical network platforms: racks of nodes behind top-of-rack (ToR)
// switches, joined by a core switch (extension; ROADMAP "Hierarchical
// network platforms").
//
// The paper's star cluster is the one-rack special case: every node owns a
// private full-duplex link into its rack's ToR switch, every rack owns a
// full-duplex uplink into the core. An intra-rack transfer crosses
//   src link -> ToR fabric -> dst link,
// a cross-rack transfer
//   src link -> ToR(a) -> uplink(a) -> core -> downlink(b) -> ToR(b)
//   -> dst link.
// The uplink capacity defaults to nodes * link_bandwidth / oversubscription
// — the standard oversubscription knob: at 1.0 the rack can drain every
// node link at once; at 4.0 cross-rack traffic contends 4:1.
//
// A star is a one-rack topology: its uplink and core are unreachable, so
// the simulator registers neither and every route is the intra-rack one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mtsched/platform/cluster.hpp"

namespace mtsched::platform {

/// One rack: `nodes` identical (or per-node-speed) compute nodes behind a
/// ToR switch with a core uplink.
struct RackSpec {
  int nodes = 8;
  double node_flops = 250e6;      ///< per-node compute speed, flop/s
  double link_bandwidth = 125e6;  ///< node-to-ToR private link, bytes/s
  double link_latency = 100e-6;   ///< node-to-ToR link latency, s
  double tor_bandwidth = 16e9;    ///< ToR switch fabric, bytes/s
  double tor_latency = 0.0;       ///< ToR switch latency, s
  bool shared_tor = true;         ///< false: ideal non-blocking ToR
  /// Uplink oversubscription ratio: the derived uplink capacity is
  /// nodes * link_bandwidth / oversubscription (>= 1 is the usual range;
  /// any positive value is accepted).
  double oversubscription = 1.0;
  /// Explicit uplink capacity in bytes/s; 0 means "derive from the
  /// oversubscription ratio".
  double uplink_bandwidth = 0.0;
  /// Optional per-node speeds (flop/s); empty = homogeneous at
  /// node_flops, otherwise exactly `nodes` entries.
  std::vector<double> node_speeds;

  /// The uplink capacity actually used: the explicit override when set,
  /// the oversubscription-derived value otherwise.
  double effective_uplink_bandwidth() const;

  bool operator==(const RackSpec&) const = default;
};

/// The core switch joining the rack uplinks.
struct CoreSpec {
  double bandwidth = 16e9;  ///< core fabric, bytes/s
  double latency = 0.0;     ///< core switch latency, s
  bool shared = true;       ///< false: ideal non-blocking core

  bool operator==(const CoreSpec&) const = default;
};

/// The network as placement-blind estimators see it: every transfer leaves
/// through rack 0's node link and crosses one switch fabric — rack 0's ToR
/// on a one-rack topology (exactly the star's switch), the core otherwise —
/// and, on multi-rack topologies, the slowest rack uplink.
struct FlatNetwork {
  double link_bandwidth = 0.0;    ///< rack 0's node link, bytes/s
  double fabric_bandwidth = 0.0;  ///< the switch fabric, bytes/s
  bool shared_fabric = false;     ///< false: non-blocking, never binds
  double uplink_bandwidth = 0.0;  ///< slowest rack uplink; 0 on one rack

  /// The slowest leg of a transfer that moves `link_bytes` through one node
  /// link, `fabric_bytes` through the fabric (when shared) and
  /// `uplink_bytes` through an uplink (on multi-rack topologies).
  double transfer_time(double link_bytes, double fabric_bytes,
                       double uplink_bytes) const;
};

/// A node -> ToR -> core link graph. Node ids are assigned rack by rack:
/// rack 0 owns [0, racks[0].nodes), rack 1 the next block, and so on.
struct Topology {
  std::string name = "topology";
  std::vector<RackSpec> racks;
  CoreSpec core;

  /// Total node count. Throws core::InvalidArgument past INT_MAX.
  int num_nodes() const;
  int num_racks() const { return static_cast<int>(racks.size()); }

  /// Rack owning `node` (node ids are contiguous per rack).
  int rack_of(int node) const;
  /// First node id of `rack`.
  int first_node_of(int rack) const;

  /// Speed of one node (its rack's node_flops unless per-node speeds are
  /// given).
  double flops_of(int node) const;

  /// The largest route latency any node pair can see — what placement-
  /// blind estimators charge.
  double max_route_latency() const;

  /// The slowest rack uplink — the worst-case cross-rack bottleneck.
  double min_uplink_bandwidth() const;

  /// True when the topology is exactly a star: one rack, whose uplink and
  /// core are unreachable.
  bool reduces_to_star() const { return racks.size() == 1; }

  /// The star approximation placement-blind estimators charge (see
  /// FlatNetwork).
  FlatNetwork flat_network() const;

  /// Throws core::InvalidArgument unless all fields are physical and the
  /// node count fits an int.
  void validate() const;

  bool operator==(const Topology&) const = default;
};

/// Validates `topo` and wraps a copy of it in a ClusterSpec, the read-only
/// view every node fact is read through.
ClusterSpec to_cluster(const Topology& topo);

/// The one-rack topology of a star: `rack` behind its switch, the rack's
/// ToR. The core is unreachable on one rack; it mirrors the switch fabric,
/// so hierarchical_topology can widen a star into racks joined by the same
/// fabric.
Topology one_rack(std::string name, RackSpec rack);

/// A homogeneous rack x nodes-per-rack platform widened from a star
/// `base`: each rack copies the star's rack (its ToR is the star's switch)
/// at `nodes_per_rack` nodes, the core copies the star's core, and the
/// uplinks are oversubscribed by the given ratio.
Topology hierarchical_topology(int num_racks, int nodes_per_rack,
                               double oversubscription,
                               const ClusterSpec& base = bayreuth32());

/// Built-in platforms addressable by name (the CLI's `--platform NAME`):
///   bayreuth32  - the paper's 32-node star
///   cray_xt4    - the paper's second platform (a 64-node star)
///   hier1x32    - one rack of 32 bayreuth nodes (bayreuth32 under another
///                 name; the bit-identity check platform)
///   hier2x16    - 2 racks x 16 nodes, non-oversubscribed
///   hier4x8     - 4 racks x 8 nodes, 4:1 oversubscribed uplinks
/// Returns std::nullopt for unknown names (callers fall back to file
/// paths).
std::optional<ClusterSpec> named_platform(const std::string& name);

/// The names named_platform accepts, for help texts and error messages.
std::vector<std::string> named_platform_names();

}  // namespace mtsched::platform
