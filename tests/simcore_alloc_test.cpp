// Allocation bound of a replay: one experiment seed of a compiled plan on
// a warmed-up runner (TGridEmulator::run(runner, plan, seed)) makes at
// most a small constant number of heap allocations, the same for a
// 10-task and a 100-task DAG — the per-event cost of an experiment seed is
// the events, not the heap.
//
// This is its own executable because it replaces the global operator new
// with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "mtsched/dag/generator.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/simcore/replay.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

void* counted_alloc(std::size_t n) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mtsched;

/// Heap allocations of one experiment seed of `tasks` tasks, HCPA-scheduled
/// under the analytical model on bayreuth32, after two warm-up runs.
std::size_t allocations_per_run(int tasks) {
  const platform::ClusterSpec spec = platform::bayreuth32();
  const machine::JavaClusterModel machine;
  const tgrid::TGridEmulator rig(machine, spec);
  const models::AnalyticalModel model(spec);
  const models::SchedCostAdapter cost(model);

  dag::DagGenParams params;
  params.num_tasks = tasks;
  params.width = 4;
  params.seed = 11;
  const dag::Dag g = dag::generate_random_dag(params).graph;
  const auto sizes =
      sched::make_allocator("HCPA")->allocate(g, cost, spec.num_nodes);
  const sched::Schedule s = sched::ListMapper().map(g, sizes, cost,
                                                    spec.num_nodes);

  const simcore::ReplayPlan plan(g, s, spec);
  simcore::ReplayRunner runner;
  rig.run(runner, plan, 7);
  rig.run(runner, plan, 8);
  allocations = 0;
  counting = true;
  const double makespan = rig.run(runner, plan, 7).makespan;
  counting = false;
  EXPECT_GT(makespan, 0.0);
  return allocations.load();
}

TEST(ReplayAllocations, WarmRunIsBoundedAndSizeIndependent) {
  const std::size_t small = allocations_per_run(10);
  const std::size_t large = allocations_per_run(100);
  EXPECT_LE(small, 4u);
  EXPECT_EQ(small, large);
}

TEST(ReplayAllocations, CounterSeesAllocations) {
  // Guards the test itself: the replaced operator new is in effect.
  allocations = 0;
  counting = true;
  auto* p = new std::vector<int>(100);
  counting = false;
  delete p;
  EXPECT_GE(allocations.load(), 2u);
}

}  // namespace
