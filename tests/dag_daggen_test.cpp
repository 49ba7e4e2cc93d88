// Tests for the DAGGEN-style layered generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/daggen.hpp"
#include "mtsched/dag/export.hpp"

namespace {

using namespace mtsched::dag;
using mtsched::core::InvalidArgument;

TEST(Daggen, Deterministic) {
  DaggenParams p;
  p.seed = 5;
  EXPECT_EQ(to_text(generate_daggen(p)), to_text(generate_daggen(p)));
}

TEST(Daggen, DifferentSeedsDiffer) {
  DaggenParams a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(to_text(generate_daggen(a)), to_text(generate_daggen(b)));
}

TEST(Daggen, TaskCountExact) {
  for (int n : {1, 7, 20, 63}) {
    DaggenParams p;
    p.num_tasks = n;
    EXPECT_EQ(generate_daggen(p).num_tasks(), static_cast<std::size_t>(n));
  }
}

TEST(Daggen, FatControlsWidth) {
  DaggenParams thin, fat;
  thin.num_tasks = fat.num_tasks = 64;
  thin.fat = 0.1;
  fat.fat = 1.0;
  thin.regularity = fat.regularity = 1.0;
  // Thin graphs have more levels (narrower layers) than fat ones.
  const int thin_levels = generate_daggen(thin).num_levels();
  const int fat_levels = generate_daggen(fat).num_levels();
  EXPECT_GT(thin_levels, fat_levels);
}

TEST(Daggen, DensityControlsEdgeCount) {
  DaggenParams sparse, dense;
  sparse.num_tasks = dense.num_tasks = 60;
  sparse.density = 0.1;
  dense.density = 1.0;
  sparse.seed = dense.seed = 3;
  EXPECT_LT(generate_daggen(sparse).num_edges(),
            generate_daggen(dense).num_edges());
}

TEST(Daggen, InDegreeCappedAtTwo) {
  DaggenParams p;
  p.num_tasks = 50;
  p.density = 1.0;
  p.fat = 1.0;
  const auto g = generate_daggen(p);
  for (const auto& t : g.tasks()) {
    EXPECT_LE(g.predecessors(t.id).size(), 2u);
  }
}

TEST(Daggen, NonEntryTasksAreConnected) {
  DaggenParams p;
  p.num_tasks = 40;
  p.density = 0.05;  // sparse enough that the fallback edge matters
  const auto g = generate_daggen(p);
  const auto levels = g.precedence_levels();
  for (const auto& t : g.tasks()) {
    if (levels[t.id] > 0) {
      EXPECT_GE(g.predecessors(t.id).size(), 1u)
          << "non-entry task " << t.id << " is disconnected";
    }
  }
}

TEST(Daggen, JumpBoundsEdgeSpan) {
  DaggenParams p;
  p.num_tasks = 60;
  p.jump = 1;
  p.density = 1.0;
  const auto g = generate_daggen(p);
  // With jump = 1 the generator only offers consecutive-layer parents, so
  // level differences along generated edges stay small. (A parent's level
  // can be pulled below its layer index by sparse in-edges, so allow
  // a bit of slack rather than exactly 1.)
  const auto levels = g.precedence_levels();
  for (const auto& e : g.edges()) {
    EXPECT_LE(levels[e.dst] - levels[e.src], 3);
  }
}

TEST(Daggen, AdditionRatioExact) {
  DaggenParams p;
  p.num_tasks = 40;
  p.add_ratio = 0.25;
  const auto g = generate_daggen(p);
  int adds = 0;
  for (const auto& t : g.tasks()) {
    if (t.kernel == TaskKernel::MatAdd) ++adds;
  }
  EXPECT_EQ(adds, 10);
}

TEST(Daggen, Validation) {
  DaggenParams p;
  p.num_tasks = 0;
  EXPECT_THROW(generate_daggen(p), InvalidArgument);
  p = {};
  p.fat = 0.0;
  EXPECT_THROW(generate_daggen(p), InvalidArgument);
  p = {};
  p.fat = 1.5;
  EXPECT_THROW(generate_daggen(p), InvalidArgument);
  p = {};
  p.density = 0.0;
  EXPECT_THROW(generate_daggen(p), InvalidArgument);
  p = {};
  p.regularity = -0.1;
  EXPECT_THROW(generate_daggen(p), InvalidArgument);
  p = {};
  p.jump = 0;
  EXPECT_THROW(generate_daggen(p), InvalidArgument);
}

/// Property sweep across the knob space: generated graphs are always valid
/// DAGs with exact task counts.
class DaggenSweep
    : public ::testing::TestWithParam<std::tuple<int, double, double, int>> {
};

TEST_P(DaggenSweep, AlwaysValid) {
  const auto [tasks, fat, density, jump] = GetParam();
  DaggenParams p;
  p.num_tasks = tasks;
  p.fat = fat;
  p.density = density;
  p.jump = jump;
  p.seed = 99;
  const auto g = generate_daggen(p);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_tasks(), static_cast<std::size_t>(tasks));
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, DaggenSweep,
    ::testing::Combine(::testing::Values(5, 20, 80),
                       ::testing::Values(0.2, 0.7, 1.0),
                       ::testing::Values(0.2, 0.9),
                       ::testing::Values(1, 3)));

}  // namespace
