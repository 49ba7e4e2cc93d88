// Microbenchmarks of the scheduling algorithms. CPA's selling point in
// the literature is its low computational complexity — these benches keep
// the whole two-step pipeline (allocation + mapping) measurably cheap on
// Table I instances and on much larger random DAGs.
#include <benchmark/benchmark.h>

#include <memory>

#include "micro_util.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/empirical.hpp"
#include "mtsched/models/profile.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/hetero.hpp"
#include "mtsched/sched/mapping.hpp"

namespace {

using namespace mtsched;

dag::GeneratedDag big_dag(int tasks, std::uint64_t seed) {
  dag::DagGenParams p;
  p.num_tasks = tasks;
  p.width = 8;
  p.add_ratio = 0.5;
  p.matrix_dim = 2000;
  p.seed = seed;
  return dag::generate_random_dag(p);
}

void BM_Allocation(benchmark::State& state, const std::string& algo_name) {
  const auto inst = big_dag(static_cast<int>(state.range(0)), 3);
  const models::AnalyticalModel model(platform::bayreuth32());
  const models::SchedCostAdapter cost(model);
  const auto algo = sched::make_allocator(algo_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo->allocate(inst.graph, cost, 32));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// The n=2000 points guard the constant factor of the CPA skeleton's
// growth step: one sequential top/bottom-level sweep in topological
// position order over adjacency rows padded to fixed-width chunks (one
// well-predicted chunk for most rows), a branch-free compaction of the
// critical tasks before the candidate scan, cached per-task gains and
// task times read from the cost table's per-shape rows.
// Exact allocation is quadratic by construction — there are n/3 to n/2
// growth steps, and each moves about 3/4 of all levels — so the step
// must stay one cheap O(n) pass rather than several. The n=50000 tier
// additionally guards the arena-backed workspaces and the running-area
// screen at very-large-DAG scale.
BENCHMARK_CAPTURE(BM_Allocation, cpa, std::string("CPA"))
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(2000)
    ->Arg(50000);
BENCHMARK_CAPTURE(BM_Allocation, hcpa, std::string("HCPA"))
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(2000)
    ->Arg(50000);
BENCHMARK_CAPTURE(BM_Allocation, mcpa, std::string("MCPA"))
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(2000)
    ->Arg(50000);

void BM_Mapping(benchmark::State& state, sched::MappingStrategy strategy) {
  const auto inst = big_dag(static_cast<int>(state.range(0)), 3);
  const models::AnalyticalModel model(platform::bayreuth32());
  const models::SchedCostAdapter cost(model);
  const auto alloc = sched::HcpaAllocator{}.allocate(inst.graph, cost, 32);
  const sched::ListMapper mapper(strategy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(inst.graph, alloc, cost, 32));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// The n=1000 points are the scaling guard for the ready-queue list
// mapper: the list-priority selection must stay O(T log T) rather than
// the naive rescan's O(T^2), and per-predecessor redistribution
// estimates must be computed once per placement, each read from the
// cost table's per-(shape, p_src, p_dst) cells.
BENCHMARK_CAPTURE(BM_Mapping, earliest, sched::MappingStrategy::EarliestStart)
    ->Arg(200)
    ->Arg(1000);
BENCHMARK_CAPTURE(BM_Mapping, redist_aware,
                  sched::MappingStrategy::RedistributionAware)
    ->Arg(200)
    ->Arg(1000);

void BM_HeteroMapping(benchmark::State& state) {
  const auto inst = big_dag(static_cast<int>(state.range(0)), 3);
  const auto spec = platform::heterogeneous_cluster(32, 150e6, 350e6, 5);
  const models::AnalyticalModel model(spec);
  const models::SchedCostAdapter cost(model);
  const sched::HeteroListMapper mapper(spec);
  const auto valloc = sched::HcpaAllocator{}.allocate(
      inst.graph, cost, sched::VirtualCluster(spec).virtual_procs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(inst.graph, valloc, cost));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// The heterogeneous mapping path: virtual-cluster translation, the
// speed-aware preference sort and cost-table task and redistribution
// estimates per placement. The HCPA virtual allocation is set up once
// outside the timed loop (BM_Allocation times it).
BENCHMARK(BM_HeteroMapping)->Arg(200)->Arg(1000);

// One model of each kind, with tables/fits covering p = 1..32 so every
// curve fetch resolves.
std::unique_ptr<models::CostModel> make_curve_model(const std::string& kind) {
  const auto spec = platform::bayreuth32();
  if (kind == "analytical") {
    return std::make_unique<models::AnalyticalModel>(spec);
  }
  if (kind == "profile") {
    models::ProfileTables t;
    std::vector<double> mm(32), add(32), startup(32), redist(32);
    for (int p = 1; p <= 32; ++p) {
      mm[p - 1] = 40.0 / p + 2.0;
      add[p - 1] = 8.0 / p + 0.5;
      startup[p - 1] = 0.6 + 0.03 * p;
      redist[p - 1] = 0.10 + 0.008 * p;
    }
    t.exec[{dag::TaskKernel::MatMul, 2000}] = mm;
    t.exec[{dag::TaskKernel::MatAdd, 2000}] = add;
    t.startup = startup;
    t.redist_by_dst = redist;
    return std::make_unique<models::ProfileModel>(spec, std::move(t));
  }
  models::EmpiricalFits f;
  mtsched::stats::PiecewiseFit mm;
  mm.small_p = {240.0, 2.0, 1.0, 0.0};
  mm.large_p = {0.1, 5.0, 1.0, 0.0};
  mm.has_large = true;
  mm.split = 16;
  f.exec[{dag::TaskKernel::MatMul, 2000}] = mm;
  mtsched::stats::PiecewiseFit add;
  add.small_p = {23.0, 0.03, 1.0, 0.0};
  add.has_large = false;
  add.split = 32;
  f.exec[{dag::TaskKernel::MatAdd, 2000}] = add;
  f.startup = {0.03, 0.65, 1.0, 0.0};
  f.redist = {0.00788, 0.10858, 1.0, 0.0};
  return std::make_unique<models::EmpiricalModel>(spec, std::move(f));
}

// One iteration = one task-time curve plus one redistribution curve over
// p = 1..32, fetched through the batched SchedCost entry points the cost
// table fills its task rows (and MHEFT's redistribution sweeps) from.
// Guards the single-virtual-call dispatch plus the flat (kernel, n) index
// lookup against regressing to a per-p map find.
void BM_CostCurve(benchmark::State& state, const std::string& kind) {
  const auto model = make_curve_model(kind);
  const models::SchedCostAdapter cost(*model);
  dag::Task t;
  t.id = 0;
  t.kernel = dag::TaskKernel::MatMul;
  t.matrix_dim = 2000;
  std::vector<double> task_buf(32), redist_buf(32);
  for (auto _ : state) {
    cost.task_time_curve(t, {task_buf.data(), task_buf.size()});
    cost.redist_time_curve(t, 4, {redist_buf.data(), redist_buf.size()});
    benchmark::DoNotOptimize(task_buf.data());
    benchmark::DoNotOptimize(redist_buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK_CAPTURE(BM_CostCurve, analytical, std::string("analytical"));
BENCHMARK_CAPTURE(BM_CostCurve, profile, std::string("profile"));
BENCHMARK_CAPTURE(BM_CostCurve, empirical, std::string("empirical"));

void BM_TwoStepPipeline(benchmark::State& state) {
  const auto inst = big_dag(static_cast<int>(state.range(0)), 5);
  const models::AnalyticalModel model(platform::bayreuth32());
  const models::SchedCostAdapter cost(model);
  const sched::HcpaAllocator hcpa;
  const sched::TwoStepScheduler scheduler(hcpa, cost, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(inst.graph));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwoStepPipeline)->Arg(10)->Arg(50)->Arg(200);

void BM_DagGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(big_dag(static_cast<int>(state.range(0)),
                                     seed++));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DagGeneration)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  return bench::run_micro_suite("micro_sched", argc, argv);
}
