// Microbenchmarks of the simulation kernel: the max-min fairness solver,
// end-to-end fluid-engine throughput and compiled schedule replays. These
// guard the scalability claim that makes flow-level simulation attractive
// in the first place (minutes of simulation for hours of cluster time).
#include <benchmark/benchmark.h>

#include "micro_util.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/redist/plan.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/simcore/cluster_sim.hpp"
#include "mtsched/simcore/engine.hpp"
#include "mtsched/simcore/maxmin.hpp"
#include "mtsched/simcore/replay.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;

simcore::MaxMinProblem random_problem(int resources, int activities,
                                      std::uint64_t seed) {
  core::Rng rng(seed);
  simcore::MaxMinProblem p;
  for (int r = 0; r < resources; ++r) {
    p.capacities.push_back(rng.uniform(10.0, 1000.0));
  }
  for (int a = 0; a < activities; ++a) {
    std::vector<simcore::Use> uses;
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < k; ++i) {
      uses.push_back(simcore::Use{
          static_cast<std::size_t>(rng.uniform_int(0, resources - 1)),
          rng.uniform(0.1, 10.0)});
    }
    p.activities.push_back(std::move(uses));
  }
  return p;
}

void BM_MaxMinSolver(benchmark::State& state) {
  const auto problem = random_problem(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simcore::solve_max_min(problem));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(problem.activities.size()));
}
BENCHMARK(BM_MaxMinSolver)
    ->Args({16, 32})
    ->Args({64, 128})
    ->Args({97, 512})
    ->Args({256, 1024});

void BM_EngineTimerChurn(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    simcore::Engine e;
    for (std::int64_t i = 0; i < n; ++i) {
      e.submit_timer(static_cast<double>(i % 97) + 0.5, nullptr);
    }
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineTimerChurn)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PtaskStorm(benchmark::State& state) {
  const auto spec = platform::bayreuth32();
  const int tasks = static_cast<int>(state.range(0));
  core::Rng rng(11);
  for (auto _ : state) {
    simcore::Engine e;
    simcore::ClusterSim cs(e, spec);
    for (int i = 0; i < tasks; ++i) {
      const int p = 1 + static_cast<int>(rng.uniform_int(0, 7));
      simcore::Ptask t;
      for (int r = 0; r < p; ++r) {
        t.host_of_rank.push_back(static_cast<int>(
            rng.uniform_int(0, spec.num_nodes - 1)));
      }
      t.flops.assign(static_cast<std::size_t>(p), 1e9);
      cs.submit_ptask(t, nullptr);
    }
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_PtaskStorm)->Arg(32)->Arg(256)->Arg(1024);

// The replay's redistribution path end to end: plan a block
// redistribution of a 2000-column matrix between two disjoint p-node
// placements, turn it into a ptask, submit it and run it. The plan has p
// messages; the per-ptask cost must grow with the messages, not with the
// (2p)^2 cells of a dense rank-pair matrix.
void BM_RedistributionPtask(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto spec = platform::bayreuth32(2 * p);
  std::vector<int> src, dst;
  for (int k = 0; k < p; ++k) {
    src.push_back(k);
    dst.push_back(p + k);
  }
  for (auto _ : state) {
    simcore::Engine e;
    simcore::ClusterSim cs(e, spec);
    const auto plan = redist::plan_block_redistribution(2000, p, p);
    cs.submit_ptask(simcore::make_redistribution_ptask(src, dst, plan),
                    nullptr);
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedistributionPtask)->Arg(4)->Arg(16)->Arg(32);

// Scaling guard for the incremental engine: a large concurrent working
// set (1000+ activities alive at once) mixing timers with single-resource
// work. Timer expiries leave the working set's usage unchanged, so the
// engine may reuse the previous max-min rates; the per-event cost is one
// fused pass over the activity slab instead of repeated full-map scans
// plus a from-scratch solve.
void BM_EngineActiveScaling(benchmark::State& state) {
  const auto n = state.range(0);
  constexpr int kResources = 32;
  for (auto _ : state) {
    core::Rng rng(23);
    simcore::Engine e;
    std::vector<simcore::ResourceId> res;
    for (int r = 0; r < kResources; ++r) {
      res.push_back(e.add_resource(100.0));
    }
    for (std::int64_t i = 0; i < n; ++i) {
      if (i % 8 == 0) {
        // A work activity pinned to one resource.
        std::vector<simcore::Use> uses{
            simcore::Use{res[static_cast<std::size_t>(i) % kResources],
                         rng.uniform(0.5, 2.0)}};
        e.submit(std::move(uses), rng.uniform(10.0, 100.0), 0.0, nullptr);
      } else {
        e.submit_timer(rng.uniform(1.0, 100.0), nullptr);
      }
    }
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// The 100000 point is the very-large-DAG tier: the SoA slab, sorted delay
// calendar and lazy event lookahead must hold their per-event cost at a
// working set that dwarfs the caches.
BENCHMARK(BM_EngineActiveScaling)->Arg(1000)->Arg(4000)->Arg(100000);

// The campaign's execute path: one HCPA schedule of an n-task DAG on
// bayreuth32, compiled once into a replay plan, then one emulated
// experiment seed per iteration on one runner. A warmed-up runner resets
// its engine and replays with no heap allocation, so the per-task cost
// must stay flat across sizes.
void BM_ReplaySeeds(benchmark::State& state) {
  const auto spec = platform::bayreuth32();
  const machine::JavaClusterModel machine;
  const tgrid::TGridEmulator rig(machine, spec);
  const models::AnalyticalModel model(spec);
  const models::SchedCostAdapter cost(model);
  dag::DagGenParams params;
  params.num_tasks = static_cast<int>(state.range(0));
  params.width = 4;
  params.seed = 5;
  const dag::Dag g = dag::generate_random_dag(params).graph;
  const auto sizes =
      sched::make_allocator("HCPA")->allocate(g, cost, spec.num_nodes);
  const auto s = sched::ListMapper().map(g, sizes, cost, spec.num_nodes);
  const simcore::ReplayPlan plan(g, s, spec);
  simcore::ReplayRunner runner;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.run(runner, plan, ++seed).makespan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_tasks()));
}
BENCHMARK(BM_ReplaySeeds)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  return bench::run_micro_suite("micro_simcore", argc, argv);
}
