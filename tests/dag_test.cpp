// Unit tests for the task-graph model.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/dag.hpp"
#include "mtsched/redist/plan.hpp"

namespace {

using namespace mtsched::dag;
using mtsched::core::InvalidArgument;

Dag diamond() {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatAdd, 2000, "b");
  const auto c = g.add_task(TaskKernel::MatMul, 2000, "c");
  const auto d = g.add_task(TaskKernel::MatAdd, 2000, "d");
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  return g;
}

TEST(KernelFlops, MatchesPaperFormulas) {
  // Multiplication: 2 n^3.
  EXPECT_DOUBLE_EQ(kernel_flops(TaskKernel::MatMul, 2000), 2.0 * 8e9);
  // Addition with the n/4 repetition: (n/4) * n^2.
  EXPECT_DOUBLE_EQ(kernel_flops(TaskKernel::MatAdd, 2000), 500.0 * 4e6);
  // The factor-8 CCR gap the paper notes survives the adjustment.
  EXPECT_DOUBLE_EQ(kernel_flops(TaskKernel::MatMul, 3000) /
                       kernel_flops(TaskKernel::MatAdd, 3000),
                   8.0);
}

TEST(KernelFlops, RejectsBadDimension) {
  EXPECT_THROW(kernel_flops(TaskKernel::MatMul, 0), InvalidArgument);
}

TEST(KernelName, Names) {
  EXPECT_STREQ(kernel_name(TaskKernel::MatMul), "matmul");
  EXPECT_STREQ(kernel_name(TaskKernel::MatAdd), "matadd");
}

TEST(Dag, AddTaskAssignsDenseIds) {
  Dag g;
  EXPECT_EQ(g.add_task(TaskKernel::MatMul, 100), 0u);
  EXPECT_EQ(g.add_task(TaskKernel::MatAdd, 100), 1u);
  EXPECT_EQ(g.num_tasks(), 2u);
}

TEST(Dag, DefaultNamesIncludeKernelAndId) {
  Dag g;
  const auto id = g.add_task(TaskKernel::MatAdd, 100);
  EXPECT_EQ(g.task(id).name, "matadd_0");
}

TEST(Dag, AddEdgeValidation) {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 100);
  const auto b = g.add_task(TaskKernel::MatMul, 100);
  g.add_edge(a, b);
  EXPECT_THROW(g.add_edge(a, b), InvalidArgument);   // duplicate
  EXPECT_THROW(g.add_edge(a, a), InvalidArgument);   // self loop
  EXPECT_THROW(g.add_edge(a, 99), InvalidArgument);  // unknown
  EXPECT_THROW(g.add_edge(99, a), InvalidArgument);
}

TEST(Dag, PredecessorsAndSuccessors) {
  const auto g = diamond();
  const auto out_degree = [&](TaskId t) {
    return std::count_if(g.edges().begin(), g.edges().end(),
                         [t](const Edge& e) { return e.src == t; });
  };
  EXPECT_EQ(out_degree(0), 2);
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_TRUE(g.predecessors(0).empty());
  EXPECT_EQ(out_degree(3), 0);
}

TEST(Dag, EntryAndExitTasks) {
  const auto g = diamond();
  EXPECT_EQ(g.entry_tasks(), std::vector<TaskId>{0});
  EXPECT_EQ(g.exit_tasks(), std::vector<TaskId>{3});
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const auto g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& e : g.edges()) EXPECT_LT(pos[e.src], pos[e.dst]);
}

TEST(Dag, CycleDetected) {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 100);
  const auto b = g.add_task(TaskKernel::MatMul, 100);
  g.add_edge(a, b);
  g.add_edge(b, a);  // structurally allowed, caught by validate
  EXPECT_THROW(g.validate(), InvalidArgument);
  EXPECT_THROW(g.topological_order(), InvalidArgument);
}

TEST(Dag, PrecedenceLevels) {
  const auto g = diamond();
  const auto lv = g.precedence_levels();
  EXPECT_EQ(lv[0], 0);
  EXPECT_EQ(lv[1], 1);
  EXPECT_EQ(lv[2], 1);
  EXPECT_EQ(lv[3], 2);
  EXPECT_EQ(g.num_levels(), 3);
}

TEST(Dag, NumLevelsEmptyGraph) {
  Dag g;
  EXPECT_EQ(g.num_levels(), 0);
}

TEST(Dag, TopologyCacheInvalidatedByMutation) {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 100);
  const auto b = g.add_task(TaskKernel::MatMul, 100);
  const auto c = g.add_task(TaskKernel::MatMul, 100);
  g.add_edge(a, b);
  EXPECT_EQ(g.num_levels(), 2);  // a -> b, c floating
  EXPECT_EQ(g.precedence_levels()[c], 0);
  // Repeated queries return the same cached storage.
  EXPECT_EQ(&g.topological_order(), &g.topological_order());
  // Mutation must drop the cache: the new edge deepens the graph.
  g.add_edge(b, c);
  EXPECT_EQ(g.num_levels(), 3);
  EXPECT_EQ(g.precedence_levels()[c], 2);
  // Adding a task also invalidates (the new task is a fresh level-0 entry).
  g.add_task(TaskKernel::MatAdd, 50);
  EXPECT_EQ(g.topological_order().size(), 4u);
  EXPECT_EQ(g.precedence_levels().size(), 4u);
}

TEST(Dag, CopySharesCacheButMutationsStayIndependent) {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 100);
  const auto b = g.add_task(TaskKernel::MatMul, 100);
  g.add_edge(a, b);
  (void)g.topological_order();  // warm the cache
  Dag copy = g;
  EXPECT_EQ(copy.num_levels(), 2);
  // Mutating the copy must not disturb the original's topology.
  const auto c = copy.add_task(TaskKernel::MatMul, 100);
  copy.add_edge(b, c);
  EXPECT_EQ(copy.num_levels(), 3);
  EXPECT_EQ(g.num_levels(), 2);
  EXPECT_EQ(g.topological_order().size(), 2u);
  // And move keeps the derived topology intact.
  const Dag moved = std::move(copy);
  EXPECT_EQ(moved.num_levels(), 3);
}

TEST(Dag, EdgeBytesIsFullMatrix) {
  // An edge moves its producer's whole n-by-n matrix of doubles.
  const auto g = diamond();
  const int n = g.task(g.edges()[0].src).matrix_dim;
  EXPECT_DOUBLE_EQ(
      mtsched::redist::plan_block_redistribution(n, 3, 5).total_bytes(),
      2000.0 * 2000.0 * 8.0);
}

TEST(Dag, UnknownTaskThrows) {
  const auto g = diamond();
  EXPECT_THROW(g.task(99), InvalidArgument);
  EXPECT_THROW(g.predecessors(99), InvalidArgument);
}

TEST(Dag, RejectsNonPositiveDimension) {
  Dag g;
  EXPECT_THROW(g.add_task(TaskKernel::MatMul, 0), InvalidArgument);
  EXPECT_THROW(g.add_task(TaskKernel::MatMul, -5), InvalidArgument);
}

}  // namespace
