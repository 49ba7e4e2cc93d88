// Tests for the Table I random DAG generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"

namespace {

using namespace mtsched::dag;
using mtsched::core::InvalidArgument;

TEST(Table1Grid, HasExactly54Instances) {
  const auto grid = table1_grid();
  EXPECT_EQ(grid.size(), 54u);
}

TEST(Table1Grid, CoversTheFullParameterSpace) {
  const auto grid = table1_grid();
  std::set<std::tuple<int, double, int>> combos;
  for (const auto& p : grid) {
    combos.insert({p.width, p.add_ratio, p.matrix_dim});
    EXPECT_EQ(p.num_tasks, 10);
  }
  EXPECT_EQ(combos.size(), 18u);  // 3 widths x 3 ratios x 2 dims
}

TEST(Table1Grid, SeedsAreDistinct) {
  const auto grid = table1_grid();
  std::set<std::uint64_t> seeds;
  for (const auto& p : grid) seeds.insert(p.seed);
  EXPECT_EQ(seeds.size(), grid.size());
}

TEST(Table1Grid, DifferentBaseSeedDifferentInstances) {
  EXPECT_NE(table1_grid(1)[0].seed, table1_grid(2)[0].seed);
}

TEST(Generator, Deterministic) {
  DagGenParams p;
  p.seed = 77;
  const auto a = generate_random_dag(p);
  const auto b = generate_random_dag(p);
  EXPECT_EQ(to_text(a.graph), to_text(b.graph));
}

TEST(Generator, DifferentSeedsUsuallyDiffer) {
  DagGenParams p;
  p.seed = 1;
  const auto a = generate_random_dag(p);
  p.seed = 2;
  const auto b = generate_random_dag(p);
  EXPECT_NE(to_text(a.graph), to_text(b.graph));
}

TEST(Generator, RespectsAdditionRatioExactly) {
  for (double ratio : {0.0, 0.2, 0.5, 0.75, 1.0}) {
    DagGenParams p;
    p.add_ratio = ratio;
    p.seed = 5;
    const auto d = generate_random_dag(p);
    int adds = 0;
    for (const auto& t : d.graph.tasks()) {
      if (t.kernel == TaskKernel::MatAdd) ++adds;
    }
    EXPECT_EQ(adds, static_cast<int>(std::lround(ratio * 10)))
        << "ratio " << ratio;
  }
}

TEST(Generator, RejectsBadParameters) {
  DagGenParams p;
  p.num_tasks = 0;
  EXPECT_THROW(generate_random_dag(p), InvalidArgument);
  p = {};
  p.width = 1;
  EXPECT_THROW(generate_random_dag(p), InvalidArgument);
  p = {};
  p.add_ratio = 1.5;
  EXPECT_THROW(generate_random_dag(p), InvalidArgument);
  p = {};
  p.matrix_dim = 0;
  EXPECT_THROW(generate_random_dag(p), InvalidArgument);
}

TEST(Generator, IdEncodesParameters) {
  DagGenParams p;
  p.width = 8;
  p.add_ratio = 0.75;
  p.matrix_dim = 3000;
  p.seed = 9;
  EXPECT_EQ(p.id(), "v8_r0.75_n3000_s9");
}

TEST(Suite, FilterByDimSplits27And27) {
  // The paper reports n = 2000 and n = 3000 separately, 27 DAGs each.
  const auto suite = generate_table1_suite();
  const auto with_dim = [&](int n) {
    return std::count_if(suite.begin(), suite.end(), [n](const auto& d) {
      return d.params.matrix_dim == n;
    });
  };
  EXPECT_EQ(with_dim(2000), 27);
  EXPECT_EQ(with_dim(3000), 27);
  EXPECT_EQ(with_dim(1234), 0);
}

/// Property sweep over the whole Table I suite: every generated DAG is a
/// valid 10-task DAG whose non-entry tasks all have at least one
/// predecessor (connectedness across levels) and at most two (binary
/// kernels), and whose entry count respects the log2(width) bound.
class SuiteProperties : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<GeneratedDag>& suite() {
    static const auto s = generate_table1_suite();
    return s;
  }
};

TEST_P(SuiteProperties, StructurallySound) {
  const auto& inst = suite()[GetParam()];
  const Dag& g = inst.graph;
  ASSERT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_tasks(), 10u);

  int entry_count = 0;
  for (const auto& t : g.tasks()) {
    const auto preds = g.predecessors(t.id).size();
    EXPECT_LE(preds, 2u) << "binary kernels take at most two inputs";
    EXPECT_EQ(t.matrix_dim, inst.params.matrix_dim);
    if (preds == 0) ++entry_count;
  }
  // Entry tasks consume raw input matrices only; their count is at most
  // log2(width) (and tasks on level 0 can also have 0 preds only).
  int log2w = 0;
  while ((1 << (log2w + 1)) <= inst.params.width) ++log2w;
  EXPECT_GE(entry_count, 1);
  // Tasks with no predecessors can also occur past level 0 when both
  // operands are raw inputs -- the generator prevents that for non-entry
  // levels, so the bound is the level-0 task count bound.
  EXPECT_LE(entry_count, std::max(1, log2w));
}

TEST_P(SuiteProperties, LevelsAreContiguous) {
  const auto& inst = suite()[GetParam()];
  const auto lv = inst.graph.precedence_levels();
  std::set<int> seen(lv.begin(), lv.end());
  // Levels 0..max all occur.
  int expect = 0;
  for (int l : seen) EXPECT_EQ(l, expect++);
}

INSTANTIATE_TEST_SUITE_P(AllTable1Dags, SuiteProperties,
                         ::testing::Range<std::size_t>(0, 54));

}  // namespace
