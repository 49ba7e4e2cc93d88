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
// computation vector `a` (flops per participating rank) and the
// communication amounts `B` between pairs of ranks. `B` is kept as a sparse
// flow list, as SimGrid's L07 model stores it: every communication mtsched
// emits is sparse (a block redistribution has at most p_src + p_dst - 1
// messages, a PDGEMM ring p). Submitting a ptask creates one fluid activity
// whose usage weights are the per-resource byte and flop totals and whose
// work amount is 1 — so computation and communication progress in lockstep
// and overlap fully, bounded by the bottleneck resource, with the route
// latency charged once. These are the L07 semantics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mtsched/platform/cluster.hpp"
#include "mtsched/redist/plan.hpp"
#include "mtsched/simcore/engine.hpp"

namespace mtsched::simcore {

/// `bytes` sent from rank `src_rank` to rank `dst_rank` of one ptask.
struct Flow {
  std::uint32_t src_rank;
  std::uint32_t dst_rank;
  double bytes;

  bool operator==(const Flow&) const = default;
};

/// A parallel task instance placed on concrete nodes.
struct Ptask {
  /// Node id hosting each rank. Communication endpoints refer to ranks.
  std::vector<int> host_of_rank;
  /// Flops to execute per rank; empty means no computation. If non-empty,
  /// size must equal host_of_rank.size().
  std::vector<double> flops;
  /// Point-to-point communication; empty means none. Zero-byte flows are
  /// skipped, and flows between ranks mapped to the same node are local
  /// copies that use no network resource. A resource's weight sums its
  /// flows' bytes in list order.
  std::vector<Flow> flows;
};

/// Redistribution ptasks cross two placements: ranks 0..p_src-1 on the
/// source nodes followed by p_dst ranks on the destination nodes; each
/// message of `plan` becomes one flow, in plan order. Throws
/// core::InvalidArgument if the plan's rank counts do not match the
/// placements.
Ptask make_redistribution_ptask(const std::vector<int>& src_nodes,
                                const std::vector<int>& dst_nodes,
                                const redist::RedistPlan& plan);

/// What a ptask charges: its usage weights, by ascending resource id, and
/// the route latency paid once before the fluid phase.
struct PtaskUsage {
  std::vector<Use> uses;
  double latency = 0.0;
};

/// A platform's engine resources and what a ptask charges them, without an
/// engine: ids follow the order ClusterSim registers the resources in, so
/// they depend only on the spec and a plan can charge transfers through a
/// layout that any engine wired by ClusterSim agrees with. Not thread-safe:
/// charging uses per-layout scratch.
class ClusterLayout {
 public:
  /// Lays out the resources of `spec` (validated) from id 0 up.
  explicit ClusterLayout(const platform::ClusterSpec& spec);

  const platform::ClusterSpec& spec() const { return spec_; }
  /// Capacity per resource, indexed by resource id.
  std::span<const double> capacities() const { return capacity_; }

  /// Aggregates a ptask into its usage weights and latency (what
  /// ClusterSim::submit_ptask hands the engine). Throws
  /// core::InvalidArgument on malformed ptasks (bad node ids, size
  /// mismatches, negative entries, flow ranks out of range).
  PtaskUsage usage(const Ptask& task);

  /// What the block redistribution of an n-by-n matrix from `src_nodes`
  /// to `dst_nodes` charges: appends its uses to `pool`, by ascending
  /// resource id, and returns its latency. One walk over both layouts'
  /// column intervals, equal to
  ///   usage(make_redistribution_ptask(src, dst,
  ///         redist::plan_block_redistribution(n, src.size(), dst.size())))
  /// bit for bit, without building the plan or the ptask.
  double redistribution_usage(int n, std::span<const int> src_nodes,
                              std::span<const int> dst_nodes,
                              std::vector<Use>& pool);

 private:
  ResourceId add(double capacity);
  void charge(ResourceId r, double w);
  /// Charges `bytes` sent from node `src` to node `dst` to every link of
  /// the route (nothing for a local copy); returns the route latency, 0
  /// for a local copy.
  double charge_flow(int src, int dst, double bytes);
  /// Appends the charged weights to `out` by ascending resource id and
  /// clears the scratch.
  void flush(std::vector<Use>& out);

  platform::ClusterSpec spec_;
  std::vector<double> capacity_;    ///< per resource id
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
  // usage() scratch: a weight per resource (all zero between calls) and
  // the ids it touched, in first-touch order.
  std::vector<double> weight_;
  std::vector<ResourceId> touched_;
};

/// A ClusterLayout registered with an engine.
class ClusterSim {
 public:
  /// Registers all resources of `spec` with `engine`, which must have none
  /// yet, so the ids are the layout's. `engine` must outlive this object.
  ClusterSim(Engine& engine, const platform::ClusterSpec& spec);

  const platform::ClusterSpec& spec() const { return layout_.spec(); }

  /// Submits a parallel task; `on_complete` fires when all of its
  /// computation and communication has finished. Returns the activity id.
  /// Throws core::InvalidArgument on malformed ptasks (see
  /// ClusterLayout::usage).
  ActivityId submit_ptask(const Ptask& task, CompletionFn on_complete,
                          Tag tag = {});

 private:
  Engine& engine_;
  ClusterLayout layout_;
};

}  // namespace mtsched::simcore
