// Cross-module integration tests: end-to-end pipeline determinism and
// simulator-vs-emulator structural agreement under a noise-free machine.
#include <gtest/gtest.h>

#include <cmath>

#include "case_study_util.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/models/profile.hpp"
#include "mtsched/profiling/profiler.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;
using dag::TaskKernel;

/// A noise-free, outlier-free machine: the profile model then has the
/// exact task costs, and the only simulator-vs-experiment differences left
/// are structural (subnet queueing, overlap details).
machine::JavaClusterConfig clean_config() {
  machine::JavaClusterConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.mm_eff_amp = 0.0;
  cfg.add_eff_amp = 0.0;
  cfg.outlier_p8_n3000 = 1.0;
  cfg.outlier_p16_n3000 = 1.0;
  cfg.outlier_p8_n2000 = 1.0;
  cfg.outlier_p16_n2000 = 1.0;
  cfg.startup_wobble = 0.0;
  cfg.redist_wobble = 0.0;
  return cfg;
}

TEST(Integration, ProfileSimulatorTracksCleanEmulatorClosely) {
  const machine::JavaClusterModel m(clean_config());
  const auto spec = m.platform_spec();
  const tgrid::TGridEmulator rig(m, spec);
  const profiling::Profiler profiler(rig);
  profiling::ProfileConfig pcfg;
  pcfg.exec_trials = 1;  // no noise: one trial is exact
  pcfg.startup_trials = 1;
  pcfg.redist_trials = 1;
  const models::ProfileModel model(spec, profiler.brute_force(pcfg));
  const sim::Simulator simulator(model);
  const models::SchedCostAdapter cost(model);
  const sched::HcpaAllocator hcpa;
  const sched::TwoStepScheduler scheduler(hcpa, cost, spec.num_nodes);

  for (std::uint64_t seed : {11, 22, 33, 44}) {
    dag::DagGenParams params;
    params.seed = seed;
    params.width = 4;
    const auto inst = dag::generate_random_dag(params);
    const auto schedule = scheduler.schedule(inst.graph);
    const double sim_mk = simulator.makespan(inst.graph, schedule);
    const double exp_mk = rig.makespan(inst.graph, schedule, /*seed=*/1);
    EXPECT_NEAR(sim_mk, exp_mk, exp_mk * 0.08)
        << "seed " << seed << ": sim " << sim_mk << " vs exp " << exp_mk;
  }
}

TEST(Integration, EndToEndPipelineIsDeterministic) {
  auto run_once = [] {
    exp::Lab lab;
    dag::DagGenParams params;
    params.seed = 5;
    params.matrix_dim = 3000;
    const auto o =
        test_util::hcpa_vs_mcpa(lab, models::CostModelKind::Empirical,
                                {dag::generate_random_dag(params)}, 99)
            .outcomes.at(0);
    return std::make_tuple(o.first.makespan_sim, o.first.makespan_exp,
                           o.second.makespan_sim, o.second.makespan_exp);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Integration, SchedulersReactToTheCostModel) {
  // The scheduler sees the world through its cost model (the paper's
  // premise): different models must generally lead to different
  // allocations — and the analytical model, knowing no overheads,
  // believes its own makespans are far shorter.
  exp::Lab lab;
  const sched::McpaAllocator mcpa;
  const models::SchedCostAdapter analytical_cost(lab.analytical());
  const models::SchedCostAdapter profile_cost(lab.profile());
  int differing = 0;
  for (std::uint64_t seed : {2, 3, 4, 5}) {
    dag::DagGenParams params;
    params.seed = seed;
    const auto inst = dag::generate_random_dag(params);
    const auto a = mcpa.allocate(inst.graph, analytical_cost, 32);
    const auto p = mcpa.allocate(inst.graph, profile_cost, 32);
    if (a != p) ++differing;
  }
  EXPECT_GE(differing, 3);
}

TEST(Integration, ExperimentSlowerThanAnalyticalPrediction) {
  // Analytical simulation systematically underestimates (it knows no
  // overheads and assumes peak kernels).
  exp::Lab lab;
  std::vector<dag::GeneratedDag> dags;
  for (std::uint64_t seed : {3, 4}) {
    dag::DagGenParams params;
    params.seed = seed;
    dags.push_back(dag::generate_random_dag(params));
  }
  const auto res = test_util::hcpa_vs_mcpa(
      lab, models::CostModelKind::Analytical, std::move(dags), 42);
  ASSERT_EQ(res.outcomes.size(), 2u);
  for (const auto& o : res.outcomes) {
    EXPECT_GT(o.first.makespan_exp, o.first.makespan_sim);
    EXPECT_GT(o.second.makespan_exp, o.second.makespan_sim);
  }
}

TEST(Integration, SubnetQueueingEmergesUnderContention) {
  // A wide one-level fan of producers feeding one consumer: the emulator
  // serializes the registrations, the simulator does not. The emulator's
  // makespan must therefore exceed the profile simulation's.
  auto cfg = clean_config();
  // A slow subnet manager makes the FIFO serialization unmistakable next
  // to network-contention effects.
  cfg.redist_base = 1.0;
  cfg.redist_per_dst = 0.0;
  cfg.redist_per_src = 0.0;
  cfg.redist_cross = 0.0;
  const machine::JavaClusterModel m(cfg);
  const auto spec = m.platform_spec();
  const tgrid::TGridEmulator rig(m, spec);

  dag::Dag g;
  const int fan = 8;
  std::vector<dag::TaskId> producers;
  for (int i = 0; i < fan; ++i) {
    producers.push_back(g.add_task(TaskKernel::MatAdd, 2000));
  }
  const auto sink = g.add_task(TaskKernel::MatAdd, 2000);
  for (const auto p : producers) g.add_edge(p, sink);

  const profiling::Profiler profiler(rig);
  profiling::ProfileConfig pcfg;
  pcfg.exec_trials = 1;
  pcfg.startup_trials = 1;
  pcfg.redist_trials = 1;
  const models::ProfileModel model(spec, profiler.brute_force(pcfg));
  const models::SchedCostAdapter cost(model);
  const auto alloc = std::vector<int>(g.num_tasks(), 2);
  const auto schedule = sched::ListMapper{}.map(g, alloc, cost, 32);

  const double sim_mk = sim::Simulator(model).makespan(g, schedule);
  const double exp_mk = rig.makespan(g, schedule, 1);
  EXPECT_GT(exp_mk, sim_mk);
}

}  // namespace
