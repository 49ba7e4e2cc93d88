// The fully wired laboratory: ground-truth machine + execution framework
// (the "cluster"), plus the three simulator cost models of the paper,
// built the way the paper builds them — the analytical model from
// formulas, the profile model from a brute-force measurement campaign, the
// empirical model from sparse measurements and regression.
//
// Also the experiment cell both exp front ends run (Campaign per cell,
// Session per cached request): schedule, compile one replay plan on the
// rig's platform, simulate, then run each seed on the thread's runner.
#pragma once

#include <array>
#include <memory>

#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/empirical.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/models/profile.hpp"
#include "mtsched/profiling/profiler.hpp"
#include "mtsched/profiling/regression_builder.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/simcore/replay.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace mtsched::exp {

struct LabConfig {
  machine::JavaClusterConfig machine;
  profiling::ProfileConfig profiling;
  profiling::SamplePlan sample_plan = profiling::SamplePlan::robust();
};

/// Owns the whole experimental setup. Non-copyable (models hold references
/// into the lab).
class Lab {
 public:
  /// The paper's setup: the built-in Java/TGrid cluster behaviour.
  explicit Lab(LabConfig cfg = {});

  /// Bring-your-own cluster: any machine model plus the network fabric it
  /// sits on. The profiling campaign and regressions run against it.
  Lab(std::unique_ptr<machine::MachineModel> machine_model,
      platform::ClusterSpec spec, LabConfig cfg = {});

  Lab(const Lab&) = delete;
  Lab& operator=(const Lab&) = delete;

  const machine::MachineModel& machine() const { return *machine_; }
  const platform::ClusterSpec& spec() const { return spec_; }
  const tgrid::TGridEmulator& rig() const { return *rig_; }

  /// Typed views of the factory-built models. The static_casts are
  /// sound: kind fixes the concrete type (see models::make_cost_model).
  const models::AnalyticalModel& analytical() const {
    return static_cast<const models::AnalyticalModel&>(
        model(models::CostModelKind::Analytical));
  }
  const models::ProfileModel& profile() const {
    return static_cast<const models::ProfileModel&>(
        model(models::CostModelKind::Profile));
  }

  /// The regression build behind the empirical model (Figure 6 data).
  const profiling::EmpiricalBuild& empirical_build() const {
    return empirical_build_;
  }

  const models::CostModel& model(models::CostModelKind kind) const;

  /// Resolves by spec.kind (e.g. models::ModelSpec::parse("profile"));
  /// the spec's construction params are ignored — a lab's models are
  /// built from its own platform, tables and fits.
  const models::CostModel& model(const models::ModelSpec& spec) const;

 private:
  void wire(const LabConfig& cfg);

  std::unique_ptr<machine::MachineModel> machine_;
  platform::ClusterSpec spec_;
  std::unique_ptr<tgrid::TGridEmulator> rig_;
  profiling::EmpiricalBuild empirical_build_;
  /// One model per CostModelKind, indexed by the enum value.
  std::array<std::unique_ptr<const models::CostModel>, 3> models_;
};

/// The calling thread's replay runner, which every cell simulates and
/// runs its experiment seeds on.
simcore::ReplayRunner& thread_runner();

/// The schedule stage of a cell: `alloc`'s processor counts, list-mapped
/// by sched::ListMapper(strategy, spec) on all of spec's nodes.
sched::Schedule allocate_and_map(const sched::Allocator& alloc,
                                 sched::MappingStrategy strategy,
                                 const dag::Dag& g,
                                 const sched::SchedCost& cost,
                                 const platform::ClusterSpec& spec);

/// What one (DAG, model, algorithm) computes once for all of its
/// experiment seeds; a seed is rig.run(thread_runner(), cell.plan, seed).
struct Cell {
  /// Compiles `schedule` for `rig`'s platform (throws
  /// core::InvalidArgument when it is invalid) and simulates it under
  /// `model`: on that plan when the model lives on the rig's platform, on
  /// a plan of its own otherwise. `g` must outlive the cell.
  Cell(const dag::Dag& g, sched::Schedule schedule,
       const models::CostModel& model, const tgrid::TGridEmulator& rig);

  const sched::Schedule schedule;
  const simcore::ReplayPlan plan;  ///< on the rig's platform
  double makespan_sim = 0.0;
};

}  // namespace mtsched::exp
