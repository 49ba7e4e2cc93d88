// Tests for heterogeneous platform support: per-node speeds, slowest-node
// execution semantics and the virtual-cluster scheduling layer.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/platform/parser.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/hetero.hpp"
#include "mtsched/sim/simulator.hpp"
#include "mtsched/simcore/cluster_sim.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;
using namespace mtsched::platform;
using mtsched::core::InvalidArgument;
using mtsched::sched::VirtualCluster;

ClusterSpec skewed4() {
  RackSpec rack = bayreuth32().topology().racks.front();
  rack.nodes = 4;
  rack.node_flops = 100.0;  // reference
  rack.node_speeds = {200.0, 100.0, 100.0, 50.0};
  return to_cluster(one_rack("skewed4", rack));
}

TEST(HeteroSpec, AccessorsAndValidation) {
  const auto c = skewed4();
  EXPECT_TRUE(c.heterogeneous());
  EXPECT_DOUBLE_EQ(c.flops_of(0), 200.0);
  EXPECT_DOUBLE_EQ(c.flops_of(3), 50.0);
  EXPECT_DOUBLE_EQ(c.total_flops(), 450.0);
  EXPECT_DOUBLE_EQ(c.min_flops(), 50.0);
  EXPECT_DOUBLE_EQ(c.max_flops(), 200.0);
  EXPECT_NO_THROW(c.validate());

  auto bad = skewed4();
  bad.node_speeds.pop_back();
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = skewed4();
  bad.node_speeds[1] = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(HeteroSpec, HomogeneousDefaults) {
  const auto c = bayreuth32();
  EXPECT_FALSE(c.heterogeneous());
  EXPECT_DOUBLE_EQ(c.flops_of(5), c.node.flops);
  EXPECT_DOUBLE_EQ(c.total_flops(), 32.0 * 250e6);
  EXPECT_DOUBLE_EQ(c.min_flops(), c.max_flops());
}

TEST(HeteroSpec, GeneratorProducesSeededSpeeds) {
  const auto a = heterogeneous_cluster(16, 100e6, 400e6, 7);
  const auto b = heterogeneous_cluster(16, 100e6, 400e6, 7);
  const auto c = heterogeneous_cluster(16, 100e6, 400e6, 8);
  EXPECT_EQ(a.node_speeds, b.node_speeds);
  EXPECT_NE(a.node_speeds, c.node_speeds);
  EXPECT_GE(a.min_flops(), 100e6);
  EXPECT_LE(a.max_flops(), 400e6);
  // Reference speed is the mean.
  EXPECT_NEAR(a.node.flops, a.total_flops() / 16.0, 1e-6);
}

TEST(HeteroSpec, ParserRoundTripsSpeeds) {
  const auto c = skewed4();
  const auto parsed = parse_platform(to_text(c.topology()));
  EXPECT_EQ(parsed.node_speeds, c.node_speeds);
}

TEST(ExecSlowdown, SlowestMemberPaces) {
  const auto c = skewed4();
  EXPECT_DOUBLE_EQ(exec_slowdown(c, {0}), 0.5);        // twice the reference
  EXPECT_DOUBLE_EQ(exec_slowdown(c, {1, 2}), 1.0);     // at reference
  EXPECT_DOUBLE_EQ(exec_slowdown(c, {0, 3}), 2.0);     // paced by the 50er
  EXPECT_DOUBLE_EQ(exec_slowdown(bayreuth32(), {0, 7}), 1.0);
  EXPECT_THROW(exec_slowdown(c, {}), InvalidArgument);
}

TEST(HeteroSimcore, PtaskBoundBySlowestCpu) {
  // Equal flop shares on a fast and a slow node: the fluid activity is
  // bottlenecked by the slow node's cpu.
  simcore::Engine e;
  simcore::ClusterSim cs(e, skewed4());
  simcore::Ptask t;
  t.host_of_rank = {0, 3};       // 200 and 50 flop/s
  t.flops = {100.0, 100.0};      // equal 1-D shares
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 2.0);  // 100 / 50
}

TEST(VirtualCluster, SizesFromAggregateSpeed) {
  const VirtualCluster vc(skewed4());
  // 450 total / 100 reference = 4 virtual processors.
  EXPECT_EQ(vc.virtual_procs(), 4);
  // Homogeneous: identity.
  EXPECT_EQ(VirtualCluster(bayreuth32()).virtual_procs(), 32);
}

TEST(VirtualCluster, TranslateCoversTheTarget) {
  const VirtualCluster vc(skewed4());
  // 1 virtual proc, preference = fastest first: node 0 alone covers it.
  EXPECT_EQ(vc.translate(1, {0, 1, 2, 3}), (std::vector<int>{0}));
  // 2 virtual procs from {1, 2, ...}: two reference nodes.
  EXPECT_EQ(vc.translate(2, {1, 2, 0, 3}), (std::vector<int>{1, 2}));
  // The slow node discounts the whole set: after {0, 3} the aggregate is
  // 2*50 = 100, far below 3 virtual procs (300); even all three give only
  // 3*50 = 150, so translate clamps to the full preference list.
  EXPECT_EQ(vc.translate(3, {0, 3, 1}), (std::vector<int>{0, 3, 1}));
  EXPECT_THROW(vc.translate(0, {0}), InvalidArgument);
  EXPECT_THROW(vc.translate(1, {}), InvalidArgument);
}

TEST(HeteroMapper, ProducesValidSchedulesOnSkewedClusters) {
  const auto spec = heterogeneous_cluster(16, 100e6, 500e6, 3);
  const models::AnalyticalModel model(spec);
  const models::SchedCostAdapter cost(model);
  const sched::VirtualCluster vc(spec);
  const sched::HcpaAllocator hcpa;
  const sched::HeteroListMapper mapper(spec);
  for (std::uint64_t seed : {1, 2, 3}) {
    dag::DagGenParams params;
    params.seed = seed;
    const auto inst = dag::generate_random_dag(params);
    const auto valloc =
        hcpa.allocate(inst.graph, cost, vc.virtual_procs());
    const auto s = mapper.map(inst.graph, valloc, cost);
    EXPECT_NO_THROW(sched::validate_schedule(inst.graph, s, spec.num_nodes));
    EXPECT_GT(s.est_makespan, 0.0);
  }
}

TEST(HeteroMapper, RejectsOversizedVirtualAllocations) {
  const auto spec = skewed4();
  const models::AnalyticalModel model(spec);
  const models::SchedCostAdapter cost(model);
  const sched::HeteroListMapper mapper(spec);
  dag::Dag g;
  g.add_task(dag::TaskKernel::MatMul, 2000);
  EXPECT_THROW(mapper.map(g, {99}, cost), InvalidArgument);
  EXPECT_THROW(mapper.map(g, {1, 1}, cost), InvalidArgument);
}

TEST(HeteroEmulator, ExecutionScaledBySlowestNode) {
  machine::JavaClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.noise_sigma = 0.0;
  const machine::JavaClusterModel m(cfg);
  auto spec = m.platform_spec();
  const tgrid::TGridEmulator homog(m, spec);

  auto hetero_spec = spec;
  // Node 0 runs at half the reference speed.
  hetero_spec.node_speeds = {spec.node.flops / 2.0, spec.node.flops,
                             spec.node.flops, spec.node.flops};
  const tgrid::TGridEmulator hetero(m, hetero_spec);

  dag::Dag g;
  g.add_task(dag::TaskKernel::MatAdd, 2000);
  sched::Schedule s;
  s.placements = {{{0, 1}, 0.0, 100.0}};
  s.proc_order = {{0}, {0}, {}, {}};

  const auto th = homog.run(g, s, 1);
  const auto tt = hetero.run(g, s, 1);
  const double exec_h = th.tasks[0].finish - th.tasks[0].exec_begin;
  const double exec_t = tt.tasks[0].finish - tt.tasks[0].exec_begin;
  EXPECT_NEAR(exec_t, 2.0 * exec_h, 1e-9);
}

TEST(HeteroSimulator, AnalyticalPtasksSlowDownAutomatically) {
  auto spec = skewed4();
  spec.node.flops = 100e6;
  spec.node_speeds = {200e6, 100e6, 100e6, 50e6};
  const models::AnalyticalModel model(spec);
  dag::Dag g;
  g.add_task(dag::TaskKernel::MatAdd, 2000);  // 2e9 flops, no comm
  sched::Schedule fast, slow;
  fast.placements = {{{0, 1}, 0.0, 100.0}};
  fast.proc_order = {{0}, {0}, {}, {}};
  slow.placements = {{{1, 3}, 0.0, 100.0}};
  slow.proc_order = {{}, {0}, {}, {0}};
  const sim::Simulator simulator(model);
  // fast pair: bottleneck 100e6 -> 1e9/1e8 = 10 s; slow pair: 50e6 -> 20 s.
  EXPECT_NEAR(simulator.makespan(g, fast), 10.0, 1e-9);
  EXPECT_NEAR(simulator.makespan(g, slow), 20.0, 1e-9);
}

}  // namespace
