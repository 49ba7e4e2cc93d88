// Tests for heterogeneous platform support: per-node speeds, slowest-node
// execution semantics and the virtual-cluster scheduling layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
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

#include "platform_util.hpp"

namespace {

using namespace mtsched;
using namespace mtsched::platform;
using mtsched::core::InvalidArgument;
using mtsched::sched::VirtualCluster;
using mtsched::test_util::solo_duration;
using mtsched::test_util::to_text;

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
  EXPECT_EQ(c.reference_flops(), 100.0);
  EXPECT_NO_THROW(c.validate());

  Topology bad = skewed4().topology();
  bad.racks[0].node_speeds.pop_back();
  EXPECT_THROW((void)to_cluster(bad), InvalidArgument);
  bad = skewed4().topology();
  bad.racks[0].node_speeds[1] = 0.0;
  EXPECT_THROW((void)to_cluster(bad), InvalidArgument);
}

TEST(HeteroSpec, HomogeneousDefaults) {
  const auto c = bayreuth32();
  EXPECT_FALSE(c.heterogeneous());
  EXPECT_DOUBLE_EQ(c.flops_of(5), c.reference_flops());
  EXPECT_DOUBLE_EQ(c.total_flops(), 32.0 * 250e6);
}

TEST(HeteroSpec, GeneratorProducesSeededSpeeds) {
  const auto a = heterogeneous_cluster(16, 100e6, 400e6, 7);
  const auto b = heterogeneous_cluster(16, 100e6, 400e6, 7);
  const auto c = heterogeneous_cluster(16, 100e6, 400e6, 8);
  const auto& speeds = a.topology().racks[0].node_speeds;
  EXPECT_EQ(speeds, b.topology().racks[0].node_speeds);
  EXPECT_NE(speeds, c.topology().racks[0].node_speeds);
  for (double s : speeds) {
    EXPECT_GE(s, 100e6);
    EXPECT_LE(s, 400e6);
  }
  // Reference speed is the mean.
  EXPECT_NEAR(a.reference_flops(), a.total_flops() / 16.0, 1e-6);
}

TEST(HeteroSpec, ParserRoundTripsSpeeds) {
  const auto c = skewed4();
  const auto parsed = parse_platform(to_text(c.topology()));
  EXPECT_EQ(parsed.topology(), c.topology());
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
  simcore::ClusterLayout layout(skewed4());
  simcore::Ptask t;
  t.host_of_rank = {0, 3};       // 200 and 50 flop/s
  t.flops = {100.0, 100.0};      // equal 1-D shares
  EXPECT_DOUBLE_EQ(solo_duration(layout, t), 2.0);  // 100 / 50
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

/// Naive hetero-mapping reference: rescans the priority list for the next
/// ready task, re-sorts the preference list per placement and asks the
/// SchedCost scalars for every task time and redistribution estimate. The
/// production mapper (ready queue, cached cost curves) must match it
/// placement-for-placement, bit-for-bit.
sched::Schedule reference_hetero_map(const ClusterSpec& spec,
                                     const dag::Dag& g,
                                     const std::vector<int>& valloc,
                                     const sched::SchedCost& cost) {
  const VirtualCluster vc(spec);
  const int P = spec.num_nodes;
  const std::size_t n = g.num_tasks();
  std::vector<double> tau(n), bl(n, 0.0);
  for (dag::TaskId t = 0; t < n; ++t) {
    tau[t] = cost.task_time(g.task(t), valloc[t]);
  }
  std::vector<std::vector<dag::TaskId>> succs(n);
  for (const dag::Edge& e : g.edges()) succs[e.src].push_back(e.dst);
  const auto topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::TaskId t = *it;
    bl[t] = tau[t];
    for (dag::TaskId s : succs[t]) {
      bl[t] = std::max(bl[t], tau[t] + bl[s]);
    }
  }
  std::vector<dag::TaskId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](dag::TaskId a, dag::TaskId b) {
                     if (bl[a] != bl[b]) return bl[a] > bl[b];
                     return a < b;
                   });
  std::vector<bool> placed(n, false);
  sched::Schedule s;
  s.placements.resize(n);
  s.proc_order.assign(static_cast<std::size_t>(P), {});
  std::vector<double> proc_ready(static_cast<std::size_t>(P), 0.0);
  for (std::size_t done = 0; done < n; ++done) {
    dag::TaskId chosen = dag::kInvalidTask;
    for (dag::TaskId cand : order) {
      if (placed[cand]) continue;
      const auto& preds = g.predecessors(cand);
      if (std::all_of(preds.begin(), preds.end(),
                      [&](dag::TaskId q) { return placed[q]; })) {
        chosen = cand;
        break;
      }
    }
    std::vector<int> pref(static_cast<std::size_t>(P));
    std::iota(pref.begin(), pref.end(), 0);
    std::stable_sort(pref.begin(), pref.end(), [&](int a, int b) {
      const double ra = proc_ready[static_cast<std::size_t>(a)];
      const double rb = proc_ready[static_cast<std::size_t>(b)];
      if (ra != rb) return ra < rb;
      return spec.flops_of(a) > spec.flops_of(b);
    });
    auto procs = vc.translate(valloc[chosen], pref);
    std::sort(procs.begin(), procs.end());
    double data_ready = 0.0;
    for (dag::TaskId q : g.predecessors(chosen)) {
      const auto& qp = s.placements[q];
      data_ready = std::max(
          data_ready,
          qp.est_finish +
              cost.redist_time(g.task(q), static_cast<int>(qp.procs.size()),
                               static_cast<int>(procs.size())));
    }
    double avail = 0.0;
    for (int pr : procs) {
      avail = std::max(avail, proc_ready[static_cast<std::size_t>(pr)]);
    }
    const double start = std::max(data_ready, avail);
    const double k_eff = static_cast<double>(procs.size()) /
                         exec_slowdown(spec, procs);
    const int p_eff = std::clamp(static_cast<int>(std::lround(k_eff)), 1,
                                 vc.virtual_procs());
    const double finish = start + cost.task_time(g.task(chosen), p_eff);
    auto& pl = s.placements[chosen];
    pl.procs = procs;
    pl.est_start = start;
    pl.est_finish = finish;
    for (int pr : procs) {
      proc_ready[static_cast<std::size_t>(pr)] = finish;
      s.proc_order[static_cast<std::size_t>(pr)].push_back(chosen);
    }
    placed[chosen] = true;
    s.est_makespan = std::max(s.est_makespan, finish);
  }
  return s;
}

TEST(HeteroMapper, Table1SuiteSliceMatchesScalarReference) {
  static const exp::Lab lab;
  // The second platform takes its slowest node as the reference speed,
  // so it has more virtual processors than physical nodes.
  Topology slow_topo = heterogeneous_cluster(8, 100e6, 400e6, 5).topology();
  RackSpec& slow_rack = slow_topo.racks[0];
  slow_rack.node_flops = *std::min_element(slow_rack.node_speeds.begin(),
                                           slow_rack.node_speeds.end());
  const auto slow_ref = to_cluster(slow_topo);
  ASSERT_GT(VirtualCluster(slow_ref).virtual_procs(), slow_ref.num_nodes);
  // The lab's models answer for p = 1..32.
  const models::SchedCostAdapter analytical_cost(
      lab.model(models::ModelSpec::parse("analytical")));
  const models::SchedCostAdapter profile_cost(
      lab.model(models::ModelSpec::parse("profile")));
  const auto suite = dag::generate_table1_suite();
  for (const auto& spec :
       {heterogeneous_cluster(32, 100e6, 400e6, 5), slow_ref}) {
    const sched::VirtualCluster vc(spec);
    ASSERT_LE(vc.virtual_procs(), 32);
    const sched::HeteroListMapper mapper(spec);
    for (const auto* cost : {&analytical_cost, &profile_cost}) {
      for (std::size_t i = 0; i < suite.size(); i += 9) {
        const auto& g = suite[i].graph;
        const auto valloc =
            sched::HcpaAllocator{}.allocate(g, *cost, vc.virtual_procs());
        const auto fast = mapper.map(g, valloc, *cost);
        const auto ref = reference_hetero_map(spec, g, valloc, *cost);
        const std::string what =
            spec.name() +
            (cost == &analytical_cost ? " analytical " : " profile ") +
            suite[i].name;
        ASSERT_EQ(fast.placements.size(), ref.placements.size()) << what;
        for (std::size_t t = 0; t < ref.placements.size(); ++t) {
          EXPECT_EQ(fast.placements[t].procs, ref.placements[t].procs)
              << what << " task " << t;
          EXPECT_EQ(fast.placements[t].est_start, ref.placements[t].est_start)
              << what << " task " << t;
          EXPECT_EQ(fast.placements[t].est_finish,
                    ref.placements[t].est_finish)
              << what << " task " << t;
        }
        EXPECT_EQ(fast.proc_order, ref.proc_order) << what;
        EXPECT_EQ(fast.est_makespan, ref.est_makespan) << what;
      }
    }
  }
  // A virtual allocation above the physical node count: the mapper must
  // price the task at that many virtual processors.
  dag::Dag one;
  one.add_task(dag::TaskKernel::MatMul, 2000);
  const std::vector<int> wide = {VirtualCluster(slow_ref).virtual_procs()};
  const auto fast =
      sched::HeteroListMapper(slow_ref).map(one, wide, profile_cost);
  const auto ref = reference_hetero_map(slow_ref, one, wide, profile_cost);
  EXPECT_EQ(fast.placements[0].procs, ref.placements[0].procs);
  EXPECT_EQ(fast.placements[0].est_finish, ref.placements[0].est_finish);
}

TEST(HeteroEmulator, ExecutionScaledBySlowestNode) {
  machine::JavaClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.noise_sigma = 0.0;
  const machine::JavaClusterModel m(cfg);
  const auto spec = m.platform_spec();
  const tgrid::TGridEmulator homog(m, spec);

  Topology hetero_topo = spec.topology();
  // Node 0 runs at half the reference speed.
  const double ref = spec.reference_flops();
  hetero_topo.racks[0].node_speeds = {ref / 2.0, ref, ref, ref};
  const tgrid::TGridEmulator hetero(m, to_cluster(hetero_topo));

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
  Topology topo = skewed4().topology();
  topo.racks[0].node_flops = 100e6;
  topo.racks[0].node_speeds = {200e6, 100e6, 100e6, 50e6};
  const models::AnalyticalModel model(to_cluster(topo));
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
