#include "mtsched/exp/lab.hpp"

#include "mtsched/core/error.hpp"
#include "mtsched/sim/simulator.hpp"

namespace mtsched::exp {

Lab::Lab(LabConfig cfg) {
  auto java = std::make_unique<machine::JavaClusterModel>(cfg.machine);
  spec_ = java->platform_spec();
  machine_ = std::move(java);
  wire(cfg);
}

Lab::Lab(std::unique_ptr<machine::MachineModel> machine_model,
         platform::ClusterSpec spec, LabConfig cfg)
    : machine_(std::move(machine_model)), spec_(std::move(spec)) {
  MTSCHED_REQUIRE(machine_ != nullptr, "machine model must not be null");
  wire(cfg);
}

void Lab::wire(const LabConfig& cfg) {
  rig_ = std::make_unique<tgrid::TGridEmulator>(*machine_, spec_);
  const profiling::Profiler profiler(*rig_);

  // The paper's three simulator versions, built through the factory:
  // Section VI's brute-force measurement campaign feeds the profile
  // model, Section VII's sparse measurements + regressions the empirical
  // one. The analytical model needs the platform spec only.
  const auto tables = profiler.brute_force(cfg.profiling);
  const profiling::RegressionBuilder builder(profiler);
  empirical_build_ = builder.build(cfg.profiling, cfg.sample_plan);

  models::ModelSpec model_spec;
  model_spec.platform = spec_;
  model_spec.profile = &tables;
  model_spec.empirical = &empirical_build_.fits;
  for (const auto kind : models::all_kinds()) {
    model_spec.kind = kind;
    models_.at(static_cast<std::size_t>(kind)) =
        models::make_cost_model(model_spec);
  }
}

const models::CostModel& Lab::model(const models::ModelSpec& spec) const {
  return model(spec.kind);
}

const models::CostModel& Lab::model(models::CostModelKind kind) const {
  const auto idx = static_cast<std::size_t>(kind);
  MTSCHED_REQUIRE(idx < models_.size() && models_[idx] != nullptr,
                  "unknown cost model kind");
  return *models_[idx];
}

simcore::ReplayRunner& thread_runner() {
  thread_local simcore::ReplayRunner runner;
  return runner;
}

sched::Schedule allocate_and_map(const sched::Allocator& alloc,
                                 sched::MappingStrategy strategy,
                                 const dag::Dag& g,
                                 const sched::SchedCost& cost,
                                 const platform::ClusterSpec& spec) {
  const int P = spec.num_nodes;
  return sched::ListMapper(strategy, spec)
      .map(g, alloc.allocate(g, cost, P), cost, P);
}

Cell::Cell(const dag::Dag& g, sched::Schedule s,
           const models::CostModel& model, const tgrid::TGridEmulator& rig)
    : schedule(std::move(s)), plan(g, schedule, rig.spec()) {
  const sim::Simulator simulator(model);
  if (model.spec() == plan.spec()) {
    makespan_sim = simulator.run(thread_runner(), plan).makespan;
  } else {
    const simcore::ReplayPlan own(g, schedule, model.spec());
    makespan_sim = simulator.run(thread_runner(), own).makespan;
  }
}

}  // namespace mtsched::exp
