// Tests for the TGrid execution-framework emulator (the "experiment").
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/tgrid/emulator.hpp"

#include "platform_util.hpp"

namespace {

using namespace mtsched;
using dag::TaskKernel;
using mtsched::test_util::route_latency;

/// A deterministic machine for exact-arithmetic tests: no noise, flat
/// efficiency, fixed overheads.
machine::JavaClusterConfig flat_config() {
  machine::JavaClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.noise_sigma = 0.0;
  cfg.mm_eff_base = 0.5;
  cfg.mm_eff_slope = 0.0;
  cfg.mm_eff_amp = 0.0;
  cfg.add_eff_base = 0.5;
  cfg.add_eff_slope = 0.0;
  cfg.add_eff_amp = 0.0;
  cfg.eff_floor = 0.5;
  cfg.eff_ceil = 0.5;
  cfg.outlier_p8_n3000 = 1.0;
  cfg.outlier_p16_n3000 = 1.0;
  cfg.outlier_p8_n2000 = 1.0;
  cfg.outlier_p16_n2000 = 1.0;
  cfg.java_msg_latency = 0.0;
  cfg.mm_sync_per_proc = 0.0;
  cfg.add_sync_per_proc = 0.0;
  cfg.startup_base = 1.0;
  cfg.startup_per_proc = 0.0;
  cfg.startup_quad = 0.0;
  cfg.startup_wobble = 0.0;
  cfg.redist_base = 0.5;
  cfg.redist_per_dst = 0.0;
  cfg.redist_per_src = 0.0;
  cfg.redist_cross = 0.0;
  cfg.redist_wobble = 0.0;
  return cfg;
}

sched::Schedule place(const dag::Dag& g,
                      const std::vector<std::vector<int>>& procs, int P,
                      const std::vector<std::pair<double, double>>& times) {
  sched::Schedule s;
  s.placements.resize(g.num_tasks());
  s.proc_order.assign(P, {});
  std::vector<std::vector<std::pair<double, dag::TaskId>>> on_proc(P);
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    s.placements[t] = {procs[t], times[t].first, times[t].second};
    for (int pr : procs[t]) on_proc[pr].push_back({times[t].first, t});
    s.est_makespan = std::max(s.est_makespan, times[t].second);
  }
  for (int pr = 0; pr < P; ++pr) {
    std::sort(on_proc[pr].begin(), on_proc[pr].end());
    for (const auto& [st, t] : on_proc[pr]) s.proc_order[pr].push_back(t);
  }
  return s;
}

TEST(TGrid, SingleTaskIsStartupPlusExec) {
  const machine::JavaClusterModel m(flat_config());
  const tgrid::TGridEmulator rig(m, m.platform_spec());
  dag::Dag g;
  g.add_task(TaskKernel::MatAdd, 2000);
  const auto s = place(g, {{0}}, 8, {{0.0, 20.0}});
  const auto trace = rig.run(g, s, 1);
  // exec = (500 * 4e6) / (250e6 * 0.5) = 16 s; startup = 1 s.
  EXPECT_DOUBLE_EQ(trace.tasks[0].startup_begin, 0.0);
  EXPECT_DOUBLE_EQ(trace.tasks[0].exec_begin, 1.0);
  EXPECT_DOUBLE_EQ(trace.tasks[0].finish, 17.0);
  EXPECT_DOUBLE_EQ(trace.makespan, 17.0);
}

TEST(TGrid, ChainPaysRegistrationAndTransfer) {
  const machine::JavaClusterModel m(flat_config());
  const auto spec = m.platform_spec();
  const tgrid::TGridEmulator rig(m, spec);
  dag::Dag g;
  const auto a = g.add_task(TaskKernel::MatAdd, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatAdd, 2000, "b");
  g.add_edge(a, b);
  const auto s = place(g, {{0}, {1}}, 8, {{0.0, 17.0}, {18.0, 40.0}});
  const auto trace = rig.run(g, s, 1);
  // a finishes at 17; b started up at 1 (parallel); registration waits for
  // a's data: request at 17, subnet service 0.5 -> transfer at 17.5;
  // 32 MB over 125 MB/s + latency; then 16 s of compute.
  EXPECT_DOUBLE_EQ(trace.edges[0].request, 17.0);
  EXPECT_DOUBLE_EQ(trace.edges[0].transfer, 17.5);
  const double xfer = 2000.0 * 2000.0 * 8.0 / 125e6 +
                      route_latency(spec.topology(), 0, 1);
  EXPECT_NEAR(trace.edges[0].done, 17.5 + xfer, 1e-6);
  EXPECT_NEAR(trace.tasks[b].finish, 17.5 + xfer + 16.0, 1e-6);
}

TEST(TGrid, RedistributionWaitsForConsumerContainers) {
  const machine::JavaClusterModel m(flat_config());
  const tgrid::TGridEmulator rig(m, m.platform_spec());
  dag::Dag g;
  const auto a = g.add_task(TaskKernel::MatAdd, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatAdd, 2000, "b");
  const auto c = g.add_task(TaskKernel::MatAdd, 2000, "c");
  g.add_edge(a, c);
  g.add_edge(b, c);
  // c shares processor 0 with a: c's containers only spawn after a
  // finishes, so the a->c and b->c registrations wait for that spawn.
  const auto s = place(g, {{0}, {1}, {0}}, 8,
                       {{0.0, 17.0}, {0.0, 17.0}, {18.0, 40.0}});
  const auto trace = rig.run(g, s, 1);
  EXPECT_DOUBLE_EQ(trace.tasks[c].startup_begin, 17.0);
  // Registrations requested when containers are up at 18.
  EXPECT_DOUBLE_EQ(trace.edges[0].request, 18.0);
  EXPECT_DOUBLE_EQ(trace.edges[1].request, 18.0);
}

TEST(TGrid, SubnetManagerSerializesRegistrations) {
  const machine::JavaClusterModel m(flat_config());
  const tgrid::TGridEmulator rig(m, m.platform_spec());
  dag::Dag g;
  // Two independent producer->consumer pairs; all four registrations of
  // data happen around the same time and must queue at the single subnet
  // manager (0.5 s each).
  const auto a = g.add_task(TaskKernel::MatAdd, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatAdd, 2000, "b");
  const auto c = g.add_task(TaskKernel::MatAdd, 2000, "c");
  const auto d = g.add_task(TaskKernel::MatAdd, 2000, "d");
  g.add_edge(a, c);
  g.add_edge(b, d);
  const auto s = place(g, {{0}, {1}, {2}, {3}}, 8,
                       {{0.0, 17.0}, {0.0, 17.0}, {18.0, 40.0}, {18.0, 40.0}});
  const auto trace = rig.run(g, s, 1);
  // Both registrations requested at 17; the second transfer starts 0.5 s
  // after the first (FIFO service).
  const double t0 = std::min(trace.edges[0].transfer, trace.edges[1].transfer);
  const double t1 = std::max(trace.edges[0].transfer, trace.edges[1].transfer);
  EXPECT_DOUBLE_EQ(t0, 17.5);
  EXPECT_DOUBLE_EQ(t1, 18.0);
}

TEST(TGrid, SameSeedSameRun) {
  machine::JavaClusterConfig cfg;  // defaults: noisy
  cfg.num_nodes = 8;
  const machine::JavaClusterModel m(cfg);
  const tgrid::TGridEmulator rig(m, m.platform_spec());
  dag::DagGenParams params;
  params.seed = 17;
  const auto inst = dag::generate_random_dag(params);
  const auto s = place(
      inst.graph,
      std::vector<std::vector<int>>(inst.graph.num_tasks(), {0, 1}), 8,
      [&] {
        std::vector<std::pair<double, double>> times;
        double t = 0.0;
        for (std::size_t i = 0; i < inst.graph.num_tasks(); ++i) {
          times.push_back({t, t + 100.0});
          t += 100.0;
        }
        return times;
      }());
  EXPECT_DOUBLE_EQ(rig.makespan(inst.graph, s, 7),
                   rig.makespan(inst.graph, s, 7));
  EXPECT_NE(rig.makespan(inst.graph, s, 7), rig.makespan(inst.graph, s, 8));
}

TEST(TGrid, MeasurementHelpersArePositiveAndNoisy) {
  machine::JavaClusterConfig cfg;
  cfg.num_nodes = 8;
  const machine::JavaClusterModel m(cfg);
  const tgrid::TGridEmulator rig(m, m.platform_spec());
  EXPECT_GT(rig.measure_startup(4, 1), 0.0);
  EXPECT_GT(rig.measure_exec(TaskKernel::MatMul, 2000, 4, 1), 0.0);
  EXPECT_GT(rig.measure_redist_overhead(2, 4, 1), 0.0);
  EXPECT_NE(rig.measure_startup(4, 1), rig.measure_startup(4, 2));
  EXPECT_DOUBLE_EQ(rig.measure_exec(TaskKernel::MatAdd, 2000, 4, 9),
                   rig.measure_exec(TaskKernel::MatAdd, 2000, 4, 9));
}

TEST(TGrid, MeasurementHelpersValidateRanges) {
  const machine::JavaClusterModel m(flat_config());
  const tgrid::TGridEmulator rig(m, m.platform_spec());
  EXPECT_THROW(rig.measure_startup(0, 1), core::InvalidArgument);
  EXPECT_THROW(rig.measure_exec(TaskKernel::MatMul, 2000, 99, 1),
               core::InvalidArgument);
  EXPECT_THROW(rig.measure_redist_overhead(0, 4, 1), core::InvalidArgument);
}

TEST(TGrid, NodeCountMismatchRejected) {
  const machine::JavaClusterModel m(flat_config());  // 8 nodes
  EXPECT_THROW(tgrid::TGridEmulator(m, platform::bayreuth32(32)),
               core::InvalidArgument);
}

TEST(TGrid, NoiseAveragesOut) {
  machine::JavaClusterConfig cfg = flat_config();
  cfg.noise_sigma = 0.05;
  const machine::JavaClusterModel m(cfg);
  const tgrid::TGridEmulator rig(m, m.platform_spec());
  double sum = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    sum += rig.measure_exec(TaskKernel::MatAdd, 2000, 2, 1000 + i);
  }
  const double mean = m.exec_time_mean(TaskKernel::MatAdd, 2000, 2);
  EXPECT_NEAR(sum / trials, mean, mean * 0.01);
}

}  // namespace
