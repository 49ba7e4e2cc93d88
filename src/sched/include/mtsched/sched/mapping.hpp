// Mapping phase of two-step mixed-parallel scheduling.
//
// Given per-task allocation sizes, the mapper assigns concrete processors
// and an execution order: tasks are considered by decreasing bottom level
// (critical tasks first) and each task takes the p processors that become
// free earliest. The earliest start time honours both processor
// availability and data readiness — a task may not start before each
// predecessor has finished and its output has been redistributed, as
// estimated by the cost model. This is the standard list-mapping used by
// the CPA family.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mtsched/dag/dag.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/cost.hpp"
#include "mtsched/sched/schedule.hpp"

namespace mtsched::sched {

/// Processor-selection policy of the mapping phase.
enum class MappingStrategy {
  /// Classic EST: take the p processors that become free earliest.
  EarliestStart,
  /// Redistribution-aware (after Hunold/Rauber/Suter 2008): prefer
  /// processors that already hold the task's input data; the payload
  /// share of the redistribution estimate is discounted by the fraction
  /// of the allocation that overlaps the predecessors' processors
  /// (same-node transfers are local copies).
  RedistributionAware,
  /// Rack-locality-aware (hierarchical platforms): like
  /// RedistributionAware, but a processor sharing a rack with a data
  /// holder earns a partial locality bonus — its transfers skip the rack
  /// uplink and core — and the payload discount counts such members at
  /// the sigma weight (the uplink's share of the per-byte path cost).
  /// Degenerates exactly to RedistributionAware on star platforms.
  RackAware,
};

/// Stable wire/CLI name of a strategy: "earliest", "redist_aware",
/// "rack_aware".
const char* mapping_name(MappingStrategy s);

/// Inverse of mapping_name; std::nullopt for unknown names.
std::optional<MappingStrategy> parse_mapping(const std::string& name);

class ListMapper {
 public:
  explicit ListMapper(
      MappingStrategy strategy = MappingStrategy::EarliestStart,
      double locality_weight = 1.0);

  /// Platform-aware mapper: required for MappingStrategy::RackAware (the
  /// rack structure comes from spec.topology; flat specs yield sigma 0
  /// and RedistributionAware behaviour).
  ListMapper(MappingStrategy strategy, const platform::ClusterSpec& spec,
             double locality_weight = 1.0);

  /// Maps `g` with the given per-task allocation sizes onto P processors.
  /// Allocation entries must lie in [1, P]. The returned schedule carries
  /// the mapper's predicted times under `cost` and validates cleanly.
  Schedule map(const dag::Dag& g, const std::vector<int>& alloc,
               const SchedCost& cost, int P) const;

  /// The same-rack bonus weight in [0, 1): the uplink's share of the
  /// per-byte cross-rack path cost. 0 on star platforms (and whenever no
  /// platform was given).
  double rack_sigma() const { return sigma_; }

 private:
  MappingStrategy strategy_;
  double locality_weight_;
  std::vector<int> rack_of_;  ///< per node; empty = single implicit rack
  int num_racks_ = 1;
  double sigma_ = 0.0;
};

/// Convenience: allocation followed by mapping.
class TwoStepScheduler {
 public:
  TwoStepScheduler(const class Allocator& allocator, const SchedCost& cost,
                   int P)
      : allocator_(allocator), cost_(cost), num_procs_(P) {}

  Schedule schedule(const dag::Dag& g) const;

 private:
  const Allocator& allocator_;
  const SchedCost& cost_;
  int num_procs_;
};

}  // namespace mtsched::sched
