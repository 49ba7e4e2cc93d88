// Tests for the measurement-table machine model and its text format.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/machine/table_machine.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;
using namespace mtsched::machine;
using dag::TaskKernel;
using mtsched::core::InvalidArgument;
using mtsched::core::ParseError;

MachineTables small_tables() {
  MachineTables t;
  t.num_nodes = 4;
  t.nominal_flops = 100e6;
  t.noise_sigma = 0.01;
  t.exec[{TaskKernel::MatMul, 1000}] = {20.0, 11.0, 8.0, 6.5};
  t.exec[{TaskKernel::MatAdd, 1000}] = {4.0, 2.2, 1.6, 1.3};
  t.startup = {0.5, 0.6, 0.7, 0.8};
  t.redist_rows[0] = {0.10, 0.11, 0.12, 0.13};
  t.redist_rows[3] = {0.12, 0.13, 0.14, 0.15};
  return t;
}

TEST(TableMachine, LooksUpMeasurements) {
  const TableMachineModel m(small_tables());
  EXPECT_DOUBLE_EQ(m.exec_time_mean(TaskKernel::MatMul, 1000, 2), 11.0);
  EXPECT_DOUBLE_EQ(m.startup_mean(3), 0.7);
  EXPECT_EQ(m.max_procs(), 4);
  EXPECT_DOUBLE_EQ(m.nominal_flops(), 100e6);
}

TEST(TableMachine, SparseRedistUsesNearestRow) {
  const TableMachineModel m(small_tables());
  // Rows exist for p_src = 1 and 4; p_src = 2 maps to row 1, p_src = 4 to
  // row 4.
  EXPECT_DOUBLE_EQ(m.redist_overhead_mean(1, 2), 0.11);
  EXPECT_DOUBLE_EQ(m.redist_overhead_mean(2, 2), 0.11);
  EXPECT_DOUBLE_EQ(m.redist_overhead_mean(4, 2), 0.13);
}

TEST(TableMachine, SamplesFollowSigma) {
  auto t = small_tables();
  t.noise_sigma = 0.0;
  const TableMachineModel m(t);
  core::Rng rng(1);
  EXPECT_DOUBLE_EQ(m.exec_time_sample(TaskKernel::MatAdd, 1000, 1, rng),
                   4.0);
}

TEST(TableMachine, MissingWorkloadThrows) {
  const TableMachineModel m(small_tables());
  EXPECT_THROW(m.exec_time_mean(TaskKernel::MatMul, 2000, 2),
               InvalidArgument);
  EXPECT_THROW(m.exec_time_mean(TaskKernel::MatMul, 1000, 5),
               InvalidArgument);
}

TEST(TableMachine, ValidatesTables) {
  auto t = small_tables();
  t.num_nodes = 0;
  EXPECT_THROW(TableMachineModel{t}, InvalidArgument);
  t = small_tables();
  t.exec[{TaskKernel::MatMul, 1000}] = {1.0};  // too short
  EXPECT_THROW(TableMachineModel{t}, InvalidArgument);
  t = small_tables();
  t.startup.clear();
  EXPECT_THROW(TableMachineModel{t}, InvalidArgument);
  t = small_tables();
  t.redist_rows.clear();
  EXPECT_THROW(TableMachineModel{t}, InvalidArgument);
  t = small_tables();
  t.exec[{TaskKernel::MatMul, 1000}][1] = -1.0;
  EXPECT_THROW(TableMachineModel{t}, InvalidArgument);
}

TEST(TableFormat, RoundTrips) {
  const auto original = small_tables();
  const auto parsed = parse_machine_tables(to_text(original));
  EXPECT_EQ(parsed.num_nodes, original.num_nodes);
  EXPECT_DOUBLE_EQ(parsed.nominal_flops, original.nominal_flops);
  EXPECT_EQ(parsed.exec, original.exec);
  EXPECT_EQ(parsed.startup, original.startup);
  EXPECT_EQ(parsed.redist_rows, original.redist_rows);
}

TEST(TableFormat, ParsesCommentsAndOrdering) {
  const auto t = parse_machine_tables(
      "# a machine\n"
      "startup : 1 2\n"
      "nodes = 2\n"
      "exec matadd 500 : 3 2\n"
      "redist 1 : 0.1 0.2\n");
  EXPECT_EQ(t.num_nodes, 2);
  EXPECT_EQ(t.startup, (std::vector<double>{1.0, 2.0}));
}

TEST(TableFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_machine_tables("nodes 2\n"), ParseError);
  EXPECT_THROW(parse_machine_tables("exec matdiv 10 : 1\n"), ParseError);
  EXPECT_THROW(parse_machine_tables("exec matmul 10 1 2\n"), ParseError);
  EXPECT_THROW(parse_machine_tables("startup : one two\n"), ParseError);
  EXPECT_THROW(parse_machine_tables("weird : 1\n"), ParseError);
}

TEST(Snapshot, CapturesBuiltInMachine) {
  const JavaClusterModel java;
  const auto tables = snapshot_tables(
      java, {{TaskKernel::MatMul, 2000}, {TaskKernel::MatAdd, 3000}});
  const TableMachineModel copy(tables);
  for (int p : {1, 8, 17, 32}) {
    EXPECT_DOUBLE_EQ(copy.exec_time_mean(TaskKernel::MatMul, 2000, p),
                     java.exec_time_mean(TaskKernel::MatMul, 2000, p));
    EXPECT_DOUBLE_EQ(copy.startup_mean(p), java.startup_mean(p));
    EXPECT_DOUBLE_EQ(copy.redist_overhead_mean(p, 5),
                     java.redist_overhead_mean(p, 5));
  }
}

TEST(Snapshot, RequiresWorkloads) {
  const JavaClusterModel java;
  EXPECT_THROW(snapshot_tables(java, {}), InvalidArgument);
}

TEST(ByoLab, RunsThePipelineOnTableMachine) {
  // A full Lab (profiling campaign + regressions) against a snapshotted
  // machine: the bring-your-own-cluster path end to end.
  const JavaClusterModel java;
  auto tables = snapshot_tables(java, {{TaskKernel::MatMul, 2000},
                                       {TaskKernel::MatAdd, 2000}});
  tables.noise_sigma = 0.0;
  auto model = std::make_unique<TableMachineModel>(std::move(tables));
  auto spec = java.platform_spec();
  exp::LabConfig cfg;
  cfg.profiling.matrix_dims = {2000};
  cfg.profiling.exec_trials = 1;
  cfg.profiling.startup_trials = 1;
  cfg.profiling.redist_trials = 1;
  const exp::Lab lab(std::move(model), spec, cfg);
  // With zero noise the profile model reproduces the tables exactly.
  dag::Task task;
  task.kernel = TaskKernel::MatMul;
  task.matrix_dim = 2000;
  EXPECT_NEAR(lab.profile().exec_estimate(task, 8),
              java.exec_time_mean(TaskKernel::MatMul, 2000, 8), 1e-9);
}

TEST(TableMachine, WorksInsideTheEmulator) {
  auto tables = small_tables();
  tables.noise_sigma = 0.0;
  const TableMachineModel m(tables);
  const tgrid::TGridEmulator rig(m, platform::bayreuth32(4));
  dag::Dag g;
  g.add_task(TaskKernel::MatAdd, 1000);
  sched::Schedule s;
  s.placements = {{{0, 1}, 0.0, 3.0}};
  s.proc_order = {{0}, {0}, {}, {}};
  // startup(2) = 0.6 + exec(2) = 2.2.
  EXPECT_DOUBLE_EQ(rig.makespan(g, s, 1), 2.8);
}

}  // namespace
