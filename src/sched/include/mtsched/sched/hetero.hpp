// Heterogeneous scheduling via virtual-cluster homogenization — the core
// idea of HCPA (N'takpé, Suter, Casanova 2007): the allocation phase runs
// unchanged on a *virtual homogeneous cluster* whose processors all have
// the platform's reference speed (rack 0's node speed,
// ClusterSpec::reference_flops()) and whose size is the platform's
// aggregate speed divided by the reference speed; the mapping phase then
// translates each virtual allocation into a concrete set of physical
// nodes with at least the same aggregate speed.
//
// Execution on a mixed-speed node set is paced by its slowest member
// (equal 1-D partitions), so the translation prefers sets of similar
// speeds: nodes are considered in order of availability, but the set is
// extended until its *discounted* aggregate — every member counted at the
// slowest member's speed — covers the virtual allocation.
#pragma once

#include <vector>

#include "mtsched/dag/dag.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/cost.hpp"
#include "mtsched/sched/schedule.hpp"

namespace mtsched::sched {

/// The virtual homogeneous cluster of a (possibly heterogeneous) platform.
class VirtualCluster {
 public:
  explicit VirtualCluster(const platform::ClusterSpec& spec);

  /// Number of reference-speed processors the platform is worth
  /// (floor(total/reference), at least 1).
  int virtual_procs() const { return virtual_procs_; }

  const platform::ClusterSpec& spec() const { return spec_; }

  /// Translates a virtual allocation into physical nodes, considering
  /// candidates in `preference` order: the chosen prefix is the shortest
  /// whose discounted aggregate speed (all members at the set's minimum)
  /// reaches virtual_alloc * reference. Returns at least one node.
  std::vector<int> translate(int virtual_alloc,
                             const std::vector<int>& preference) const;

 private:
  platform::ClusterSpec spec_;
  int virtual_procs_;
};

/// List mapping on a heterogeneous platform: per-task virtual allocations
/// (from any Allocator run with P = virtual_procs()) are translated to
/// physical node sets; priorities and earliest-start selection follow the
/// homogeneous ListMapper, with execution estimates scaled by the chosen
/// set's slowest member.
class HeteroListMapper {
 public:
  explicit HeteroListMapper(const platform::ClusterSpec& spec);

  Schedule map(const dag::Dag& g, const std::vector<int>& virtual_alloc,
               const SchedCost& cost) const;

 private:
  VirtualCluster vc_;
};

}  // namespace mtsched::sched
