// Allocation bound of a replay: one experiment seed of a compiled plan on
// a warmed-up runner (TGridEmulator::run(runner, plan, seed)) makes at
// most a small constant number of heap allocations, the same for a
// 10-task and a 100-task DAG — the per-event cost of an experiment seed is
// the events, not the heap. A single replay (TGridEmulator::makespan)
// reuses the calling thread's runner, so only its first call on a thread
// pays for wiring one.
//
// The JSON reader that decodes requests is held to the same standard: it
// builds error text only when it throws, so parsing an array allocates
// for the array's growth, not once per element.
//
// This is its own executable because it replaces the global operator new
// with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "mtsched/dag/generator.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/obs/json.hpp"
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

TEST(ReplayAllocations, SingleReplaysReuseTheThreadsRunner) {
  // TGridEmulator::makespan(g, s, seed) compiles a plan per call but runs
  // it on simcore::thread_runner(): only the first call on a thread wires
  // the runner's engine and grows its buffers. A fresh thread makes that
  // first call the runner's first use.
  const platform::ClusterSpec spec = platform::bayreuth32();
  const machine::JavaClusterModel machine;
  const tgrid::TGridEmulator rig(machine, spec);
  const models::AnalyticalModel model(spec);
  const models::SchedCostAdapter cost(model);
  dag::DagGenParams params;
  params.num_tasks = 30;
  params.width = 4;
  params.seed = 11;
  const dag::Dag g = dag::generate_random_dag(params).graph;
  const sched::Schedule s = sched::ListMapper().map(
      g, sched::make_allocator("HCPA")->allocate(g, cost, spec.num_nodes),
      cost, spec.num_nodes);

  std::size_t first = 0;
  std::size_t second = 0;
  double makespans[2] = {0.0, 0.0};
  std::thread([&] {
    allocations = 0;
    counting = true;
    makespans[0] = rig.makespan(g, s, 7);
    counting = false;
    first = allocations.load();
    allocations = 0;
    counting = true;
    makespans[1] = rig.makespan(g, s, 7);
    counting = false;
    second = allocations.load();
  }).join();
  EXPECT_GT(makespans[0], 0.0);
  EXPECT_EQ(makespans[0], makespans[1]);
  EXPECT_LT(second, first);
}

/// Heap allocations of json::parse on an array of the numbers 0..n-1.
std::size_t allocations_to_parse(unsigned n) {
  std::string text = "[";
  for (unsigned i = 0; i < n; ++i) {
    text += (i == 0 ? "" : ",") + std::to_string(i);
  }
  text += "]";
  const std::string what = "number array";
  allocations = 0;
  counting = true;
  const obs::json::Value v = obs::json::parse(text, what);
  counting = false;
  EXPECT_EQ(v.items.size(), n);
  return allocations.load();
}

TEST(JsonAllocations, ArrayParseAllocatesPerGrowthNotPerElement) {
  // The item vector doubles about log2(n) times; nothing else allocates.
  const unsigned n = 100;
  EXPECT_LE(allocations_to_parse(n), 2u * std::bit_width(n));
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
