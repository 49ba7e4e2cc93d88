// Tests for the max-min fairness solver, including the Pareto/max-min
// property sweeps that pin down the SimGrid-style sharing semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/simcore/maxmin.hpp"

namespace {

using namespace mtsched::simcore;
using mtsched::core::InvalidArgument;

/// The oracle of the property sweeps: no capacity exceeded (up to `tol`
/// relative slack) and every activity with usage has a finite positive
/// rate.
bool feasible(const MaxMinProblem& problem, const std::vector<double>& rates,
              double tol = 1e-9) {
  if (rates.size() != problem.activities.size()) return false;
  std::vector<double> usage(problem.capacities.size(), 0.0);
  for (std::size_t i = 0; i < problem.activities.size(); ++i) {
    const auto& uses = problem.activities[i];
    if (!uses.empty()) {
      if (!(rates[i] > 0.0) || std::isinf(rates[i])) return false;
      for (const auto& u : uses) usage[u.resource] += u.weight * rates[i];
    }
  }
  for (std::size_t r = 0; r < usage.size(); ++r) {
    if (usage[r] > problem.capacities[r] * (1.0 + tol)) return false;
  }
  return true;
}

TEST(MaxMin, SingleActivityGetsFullCapacity) {
  MaxMinProblem p;
  p.capacities = {100.0};
  p.activities = {{{0, 1.0}}};
  const auto r = solve_max_min(p);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r[0], 100.0);
}

TEST(MaxMin, TwoEqualActivitiesShareEvenly) {
  MaxMinProblem p;
  p.capacities = {100.0};
  p.activities = {{{0, 1.0}}, {{0, 1.0}}};
  const auto r = solve_max_min(p);
  EXPECT_DOUBLE_EQ(r[0], 50.0);
  EXPECT_DOUBLE_EQ(r[1], 50.0);
}

TEST(MaxMin, WeightsScaleConsumption) {
  // Activity 0 uses 3 units per rate unit, activity 1 uses 1.
  MaxMinProblem p;
  p.capacities = {100.0};
  p.activities = {{{0, 3.0}}, {{0, 1.0}}};
  const auto r = solve_max_min(p);
  // Uniform fill: rho*(3+1) = 100 -> both frozen at 25.
  EXPECT_DOUBLE_EQ(r[0], 25.0);
  EXPECT_DOUBLE_EQ(r[1], 25.0);
}

TEST(MaxMin, BottleneckFreezingReleasesElsewhere) {
  // Activity 0 is alone on a large resource; activity 1 shares a small one
  // with activity 2.
  MaxMinProblem p;
  p.capacities = {100.0, 10.0};
  p.activities = {{{0, 1.0}}, {{0, 1.0}, {1, 1.0}}, {{1, 1.0}}};
  const auto r = solve_max_min(p);
  // Resource 1 binds first: activities 1 and 2 freeze at 5. Activity 0
  // then takes the rest of resource 0: 95.
  EXPECT_DOUBLE_EQ(r[1], 5.0);
  EXPECT_DOUBLE_EQ(r[2], 5.0);
  EXPECT_DOUBLE_EQ(r[0], 95.0);
}

TEST(MaxMin, EmptyUsageIsInfinite) {
  MaxMinProblem p;
  p.capacities = {10.0};
  p.activities = {{}, {{0, 1.0}}};
  const auto r = solve_max_min(p);
  EXPECT_TRUE(std::isinf(r[0]));
  EXPECT_DOUBLE_EQ(r[1], 10.0);
}

TEST(MaxMin, NoActivities) {
  MaxMinProblem p;
  p.capacities = {10.0};
  EXPECT_TRUE(solve_max_min(p).empty());
}

TEST(MaxMin, MultiResourceActivityBoundByTightest) {
  MaxMinProblem p;
  p.capacities = {100.0, 30.0};
  p.activities = {{{0, 1.0}, {1, 1.0}}};
  const auto r = solve_max_min(p);
  EXPECT_DOUBLE_EQ(r[0], 30.0);
}

TEST(MaxMin, Validation) {
  MaxMinProblem p;
  p.capacities = {0.0};
  p.activities = {{{0, 1.0}}};
  EXPECT_THROW(solve_max_min(p), InvalidArgument);
  p.capacities = {10.0};
  p.activities = {{{5, 1.0}}};
  EXPECT_THROW(solve_max_min(p), InvalidArgument);
  p.activities = {{{0, -1.0}}};
  EXPECT_THROW(solve_max_min(p), InvalidArgument);
}

TEST(Feasible, AcceptsSolutionRejectsOverload) {
  MaxMinProblem p;
  p.capacities = {100.0};
  p.activities = {{{0, 1.0}}, {{0, 1.0}}};
  EXPECT_TRUE(feasible(p, {50.0, 50.0}));
  EXPECT_FALSE(feasible(p, {80.0, 80.0}));
  EXPECT_FALSE(feasible(p, {50.0}));  // wrong size
}

/// Property sweep on random problems: the solver's allocation is feasible,
/// and max-min — every activity is bottlenecked (uses at least one
/// saturated resource), which implies Pareto optimality.
class MaxMinRandom : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinRandom, FeasibleAndBottlenecked) {
  mtsched::core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  MaxMinProblem p;
  const int num_res = 2 + static_cast<int>(rng.uniform_int(0, 6));
  const int num_act = 1 + static_cast<int>(rng.uniform_int(0, 14));
  for (int r = 0; r < num_res; ++r)
    p.capacities.push_back(rng.uniform(10.0, 1000.0));
  for (int a = 0; a < num_act; ++a) {
    std::vector<Use> uses;
    const int k = 1 + static_cast<int>(rng.uniform_int(0, num_res - 1));
    std::vector<std::size_t> rs(static_cast<std::size_t>(num_res));
    for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = i;
    rng.shuffle(rs);
    for (int i = 0; i < k; ++i)
      uses.push_back(Use{rs[static_cast<std::size_t>(i)],
                         rng.uniform(0.1, 10.0)});
    p.activities.push_back(std::move(uses));
  }

  const auto rates = solve_max_min(p);
  EXPECT_TRUE(feasible(p, rates, 1e-6));

  // Usage per resource.
  std::vector<double> usage(p.capacities.size(), 0.0);
  for (std::size_t a = 0; a < p.activities.size(); ++a) {
    for (const auto& u : p.activities[a]) {
      usage[u.resource] += u.weight * rates[a];
    }
  }
  // Every activity touches at least one saturated resource.
  for (std::size_t a = 0; a < p.activities.size(); ++a) {
    bool bottlenecked = false;
    for (const auto& u : p.activities[a]) {
      if (usage[u.resource] >= p.capacities[u.resource] * (1.0 - 1e-6)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "activity " << a << " could be raised";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxMinRandom, ::testing::Range(1, 41));

/// Independent brute-force progressive-filling reference. Unlike the
/// production solver it accumulates rates additively round by round over
/// *remaining* capacities, so agreement with solve_max_min is a real
/// cross-check of the algorithm, not of a shared implementation.
std::vector<double> reference_max_min(const MaxMinProblem& p) {
  const std::size_t n = p.activities.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> rates(n, 0.0);
  std::vector<bool> frozen(n, false);
  for (std::size_t a = 0; a < n; ++a) {
    if (p.activities[a].empty()) {
      rates[a] = kInf;
      frozen[a] = true;
    }
  }
  for (;;) {
    // Load of still-raising activities and slack per resource.
    std::vector<double> load(p.capacities.size(), 0.0);
    std::vector<double> slack(p.capacities);
    bool any_unfrozen = false;
    for (std::size_t a = 0; a < n; ++a) {
      for (const auto& u : p.activities[a]) {
        if (!frozen[a]) load[u.resource] += u.weight;
        slack[u.resource] -= u.weight * rates[a];
      }
      any_unfrozen = any_unfrozen || !frozen[a];
    }
    if (!any_unfrozen) break;
    double delta = kInf;
    for (std::size_t r = 0; r < load.size(); ++r) {
      if (load[r] > 0.0) {
        delta = std::min(delta, std::max(0.0, slack[r]) / load[r]);
      }
    }
    for (std::size_t a = 0; a < n; ++a) {
      if (!frozen[a]) rates[a] += delta;
    }
    // Freeze every raising activity that now touches a saturated resource.
    for (std::size_t r = 0; r < load.size(); ++r) {
      if (load[r] == 0.0) continue;
      double used = 0.0;
      for (std::size_t a = 0; a < n; ++a) {
        for (const auto& u : p.activities[a]) {
          if (u.resource == r) used += u.weight * rates[a];
        }
      }
      if (used >= p.capacities[r] * (1.0 - 1e-9)) {
        for (std::size_t a = 0; a < n; ++a) {
          if (frozen[a]) continue;
          for (const auto& u : p.activities[a]) {
            if (u.resource == r) {
              frozen[a] = true;
              break;
            }
          }
        }
      }
    }
  }
  return rates;
}

/// Random problem with the same shape distribution as MaxMinRandom.
MaxMinProblem random_problem(mtsched::core::Rng& rng) {
  MaxMinProblem p;
  const int num_res = 2 + static_cast<int>(rng.uniform_int(0, 6));
  const int num_act = 1 + static_cast<int>(rng.uniform_int(0, 14));
  for (int r = 0; r < num_res; ++r)
    p.capacities.push_back(rng.uniform(10.0, 1000.0));
  for (int a = 0; a < num_act; ++a) {
    std::vector<Use> uses;
    const int k = 1 + static_cast<int>(rng.uniform_int(0, num_res - 1));
    std::vector<std::size_t> rs(static_cast<std::size_t>(num_res));
    for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = i;
    rng.shuffle(rs);
    for (int i = 0; i < k; ++i)
      uses.push_back(
          Use{rs[static_cast<std::size_t>(i)], rng.uniform(0.1, 10.0)});
    p.activities.push_back(std::move(uses));
  }
  return p;
}

class MaxMinReference : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinReference, SolverMatchesBruteForceReference) {
  mtsched::core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 7);
  const auto p = random_problem(rng);
  const auto fast = solve_max_min(p);
  const auto ref = reference_max_min(p);
  ASSERT_EQ(fast.size(), ref.size());
  EXPECT_TRUE(feasible(p, fast, 1e-6));
  for (std::size_t a = 0; a < fast.size(); ++a) {
    if (std::isinf(ref[a])) {
      EXPECT_TRUE(std::isinf(fast[a])) << "activity " << a;
    } else {
      EXPECT_NEAR(fast[a], ref[a], 1e-9 * std::max(1.0, ref[a]))
          << "activity " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxMinReference, ::testing::Range(1, 41));

TEST(MaxMinSolver, ReusedWorkspaceMatchesOneShotSolveExactly) {
  // One solver instance carried across problems of different shapes must
  // produce bit-identical rates to a fresh solve_max_min each time: the
  // engine reuses its solver across every step of a simulation.
  mtsched::core::Rng rng(2026);
  MaxMinSolver solver;
  std::vector<double> rates;
  for (int round = 0; round < 60; ++round) {
    const auto p = random_problem(rng);
    std::vector<const std::vector<Use>*> views;
    std::vector<std::size_t> idx;
    for (std::size_t a = 0; a < p.activities.size(); ++a) {
      if (!p.activities[a].empty()) {
        views.push_back(&p.activities[a]);
        idx.push_back(a);
      }
    }
    solver.solve(p.capacities, views, rates);
    const auto expected = solve_max_min(p);
    ASSERT_EQ(rates.size(), views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      // Bitwise equality, not approximate: workspace reuse must not
      // change a single ulp or simulations would diverge across runs.
      EXPECT_EQ(rates[i], expected[idx[i]]) << "round " << round;
    }
  }
}

}  // namespace
