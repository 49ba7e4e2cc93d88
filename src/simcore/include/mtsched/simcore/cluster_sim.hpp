// Cluster resource wiring and the parallel-task (Ptask_L07-style) model.
//
// Maps a platform::ClusterSpec's topology onto engine resources:
//   * one compute resource per node (capacity = flop/s),
//   * one uplink and one downlink resource per node (capacity = bytes/s,
//     full duplex as in SimGrid's cluster model),
//   * per rack, a resource for the ToR switch fabric when it is shared,
//   * on multi-rack topologies, per rack a full-duplex uplink/downlink pair
//     into the core, and a resource for the core fabric when it is shared.
// A star is a one-rack topology: per-node cpu/up/down plus its switch
// fabric, as in SimGrid's cluster model. A transfer's bytes are charged to
// every link on its route, so the max-min engine shares bandwidth per link
// and on multi-rack platforms redistribution cost becomes
// placement-dependent.
//
// A parallel task is described exactly as in the paper's Section IV: a
// computation vector `a` (flops per participating rank) and a communication
// matrix `B` (bytes exchanged between each pair of ranks). Submitting it
// creates one fluid activity whose usage weights are the per-resource byte
// and flop totals and whose work amount is 1 — so computation and
// communication progress in lockstep and overlap fully, bounded by the
// bottleneck resource, with the route latency charged once. These are the
// L07 semantics.
#pragma once

#include <string>
#include <vector>

#include "mtsched/core/matrix.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/simcore/engine.hpp"

namespace mtsched::simcore {

/// A parallel task instance placed on concrete nodes.
struct Ptask {
  /// Node id hosting each rank. Communication endpoints refer to ranks.
  std::vector<int> host_of_rank;
  /// Flops to execute per rank; empty means no computation. If non-empty,
  /// size must equal host_of_rank.size().
  std::vector<double> flops;
  /// bytes(i, j): bytes rank i sends to rank j; empty means no
  /// communication. If non-empty, must be square with side
  /// host_of_rank.size(). Transfers between ranks mapped to the same node
  /// are local copies and use no network resource.
  core::Matrix<double> bytes;
  std::string name;
};

/// Redistribution ptasks cross two placements: ranks 0..p_src-1 on the
/// source nodes followed by p_dst ranks on destination nodes, with a
/// (p_src x p_dst) byte matrix. Helper to build the square Ptask form.
Ptask make_redistribution_ptask(const std::vector<int>& src_nodes,
                                const std::vector<int>& dst_nodes,
                                const core::Matrix<double>& bytes,
                                std::string name = {});

class ClusterSim {
 public:
  /// Registers all resources of `spec` with `engine`. Both references must
  /// outlive this object.
  ClusterSim(Engine& engine, const platform::ClusterSpec& spec);

  const platform::ClusterSpec& spec() const { return spec_; }
  Engine& engine() { return engine_; }

  ResourceId cpu(int node) const;
  ResourceId uplink(int node) const;
  ResourceId downlink(int node) const;
  /// Rack owning `node`.
  int rack_of(int node) const;
  /// The rack's shared ToR fabric (a star's switch); only valid when the
  /// rack's ToR is shared (throws otherwise).
  ResourceId tor(int rack) const;
  /// The rack's core uplink / downlink resources (multi-rack only).
  ResourceId rack_uplink(int rack) const;
  ResourceId rack_downlink(int rack) const;
  /// True when a multi-rack platform's core fabric is shared.
  bool has_core() const;
  ResourceId core_switch() const;

  /// Submits a parallel task; `on_complete` fires when all of its
  /// computation and communication has finished. Returns the activity id.
  /// Throws core::InvalidArgument on malformed ptasks (bad node ids, size
  /// mismatches, negative entries).
  ActivityId submit_ptask(const Ptask& task, CompletionFn on_complete);

  /// The duration the ptask would take if it ran alone on the cluster
  /// (bottleneck formula + latency). Useful for cost estimation.
  double solo_duration(const Ptask& task) const;

 private:
  /// Aggregates a ptask into usage weights and its latency term.
  std::pair<std::vector<Use>, double> build_uses(const Ptask& task) const;

  Engine& engine_;
  platform::ClusterSpec spec_;
  std::vector<ResourceId> cpus_;
  std::vector<ResourceId> up_;
  std::vector<ResourceId> down_;
  std::vector<int> rack_of_;        ///< node -> rack
  std::vector<ResourceId> tor_;     ///< per rack; invalid if not shared
  // Multi-rack wiring (empty on one rack).
  std::vector<ResourceId> torup_;   ///< per rack: uplink into the core
  std::vector<ResourceId> tordown_; ///< per rack: downlink from the core
  std::vector<double> rack_lat_;    ///< (racks x racks) route latencies
  ResourceId core_ = static_cast<ResourceId>(-1);
  bool has_core_ = false;
};

}  // namespace mtsched::simcore
