// Tests for the CPA-family allocation phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/daggen.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/sched/allocation.hpp"

namespace {

using namespace mtsched::sched;
using namespace mtsched::dag;
using mtsched::core::InvalidArgument;

/// Ideal-speedup cost: tau(t, p) = W(t)/p (+ optional fixed startup).
class IdealCost final : public SchedCost {
 public:
  explicit IdealCost(double startup = 0.0) : startup_(startup) {}
  double exec_time(const Task& t, int p) const override {
    return kernel_flops(t.kernel, t.matrix_dim) / 1e9 / p;
  }
  double startup_time(int) const override { return startup_; }
  double redist_time(const Task&, int, int) const override { return 0.0; }

 private:
  double startup_;
};

Dag chain(int len, TaskKernel k = TaskKernel::MatMul, int n = 2000) {
  Dag g;
  TaskId prev = kInvalidTask;
  for (int i = 0; i < len; ++i) {
    const auto id = g.add_task(k, n);
    if (prev != kInvalidTask) g.add_edge(prev, id);
    prev = id;
  }
  return g;
}

Dag fork_join(int width, int n = 2000) {
  Dag g;
  const auto src = g.add_task(TaskKernel::MatMul, n);
  const auto sink = g.add_task(TaskKernel::MatMul, n);
  for (int i = 0; i < width; ++i) {
    const auto mid = g.add_task(TaskKernel::MatMul, n);
    g.add_edge(src, mid);
    g.add_edge(mid, sink);
  }
  return g;
}

/// Independent reference for CPA's stopping criterion under `alloc`: the
/// computation-only critical path T_CP (a plain longest path with zero
/// edge weights) and the average area T_A = sum(p * tau) / P.
struct CpaMetrics {
  double t_cp = 0.0;
  double t_a = 0.0;
};

CpaMetrics cpa_metrics(const Dag& g, const SchedCost& cost,
                       const std::vector<int>& alloc, int P) {
  if (alloc.size() != g.num_tasks()) {
    throw InvalidArgument("allocation vector size mismatch");
  }
  CpaMetrics m;
  std::vector<double> finish(g.num_tasks(), 0.0);
  double area = 0.0;
  for (const TaskId t : g.topological_order()) {
    double start = 0.0;
    for (const TaskId p : g.predecessors(t)) {
      start = std::max(start, finish[p]);
    }
    const double tau = cost.task_time(g.task(t), alloc[t]);
    finish[t] = start + tau;
    m.t_cp = std::max(m.t_cp, finish[t]);
    area += static_cast<double>(alloc[t]) * tau;
  }
  m.t_a = area / static_cast<double>(P);
  return m;
}

TEST(Cpa, ChainGrowsAllocationsOnIdealCurves) {
  // A pure chain is all critical path; with ideal speedup and no area
  // penalty (area constant in p), CPA grows until T_CP <= T_A.
  const auto g = chain(4);
  const IdealCost cost;
  const auto alloc = CpaAllocator{}.allocate(g, cost, 32);
  for (int a : alloc) EXPECT_GT(a, 1);
}

TEST(Cpa, AllocationsWithinBounds) {
  const auto g = fork_join(4);
  const IdealCost cost;
  for (int P : {1, 2, 8, 32}) {
    const auto alloc = CpaAllocator{}.allocate(g, cost, P);
    for (int a : alloc) {
      EXPECT_GE(a, 1);
      EXPECT_LE(a, P);
    }
  }
}

TEST(Cpa, SingleProcessorClusterKeepsOnes) {
  const auto g = chain(3);
  const IdealCost cost;
  const auto alloc = CpaAllocator{}.allocate(g, cost, 1);
  for (int a : alloc) EXPECT_EQ(a, 1);
}

TEST(Cpa, StopsAtAverageAreaCriterion) {
  const auto g = fork_join(6);
  const IdealCost cost;
  const auto alloc = CpaAllocator{}.allocate(g, cost, 32);
  const auto m = cpa_metrics(g, cost, alloc, 32);
  // After termination either the criterion holds or everything is at P.
  bool all_maxed = true;
  for (int a : alloc) all_maxed = all_maxed && (a == 32);
  EXPECT_TRUE(m.t_cp <= m.t_a * (1.0 + 1e-9) || all_maxed);
}

TEST(Hcpa, RespectsSelfConstrainedCap) {
  // fork_join(4) has a 4-wide middle level: cap = ceil(32/4) = 8.
  const auto g = fork_join(4);
  const IdealCost cost;
  const auto alloc = HcpaAllocator{}.allocate(g, cost, 32);
  for (int a : alloc) EXPECT_LE(a, 8);
}

TEST(Hcpa, CapDependsOnWidth) {
  const IdealCost cost;
  const auto wide = HcpaAllocator{}.allocate(fork_join(8), cost, 32);
  const auto narrow = HcpaAllocator{}.allocate(fork_join(2), cost, 32);
  int wide_max = 0, narrow_max = 0;
  for (int a : wide) wide_max = std::max(wide_max, a);
  for (int a : narrow) narrow_max = std::max(narrow_max, a);
  EXPECT_LE(wide_max, 4);    // ceil(32/8)
  EXPECT_LE(narrow_max, 16); // ceil(32/2)
  EXPECT_GT(narrow_max, wide_max);
}

TEST(Hcpa, EfficiencyGateBindsOnSaturatingCurves) {
  // tau(p) = W/p + 1.0: efficiency decays with p, so the 0.8 gate stops
  // growth well before the cap.
  class Saturating final : public SchedCost {
   public:
    double exec_time(const Task&, int p) const override {
      return 100.0 / p + 1.0;
    }
    double startup_time(int) const override { return 0.0; }
    double redist_time(const Task&, int, int) const override { return 0.0; }
  };
  const auto g = chain(3);
  const auto alloc = HcpaAllocator{}.allocate(g, Saturating{}, 32);
  // e(p) = 101 / (p * (100/p + 1)) = 101/(100 + p); e >= 0.8 -> p <= 26;
  // but the chain cap is 32, so the gate is what binds.
  for (int a : alloc) EXPECT_LE(a, 27);
}

TEST(Hcpa, InvalidEfficiencyRejected) {
  EXPECT_THROW(HcpaAllocator{0.0}, InvalidArgument);
  EXPECT_THROW(HcpaAllocator{1.5}, InvalidArgument);
}

TEST(Mcpa, LevelAllocationsNeverExceedP) {
  // The budget is max(P, level width): every task keeps at least one
  // processor, so a level wider than the machine starts over budget and
  // simply never grows.
  const IdealCost cost;
  for (int width : {2, 4, 8}) {
    const auto g = fork_join(width);
    const auto levels = g.precedence_levels();
    std::vector<int> level_width(g.num_levels(), 0);
    for (TaskId t = 0; t < g.num_tasks(); ++t) ++level_width[levels[t]];
    for (int P : {4, 16, 32}) {
      const auto alloc = McpaAllocator{}.allocate(g, cost, P);
      std::vector<int> per_level(g.num_levels(), 0);
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        per_level[levels[t]] += alloc[t];
      }
      for (int l = 0; l < g.num_levels(); ++l) {
        EXPECT_LE(per_level[l], std::max(P, level_width[l]));
      }
    }
  }
}

TEST(Mcpa, SingleTaskLevelsCanUseWholeMachine) {
  const auto g = chain(3);
  const IdealCost cost;
  const auto alloc = McpaAllocator{}.allocate(g, cost, 32);
  // Nothing caps a chain under MCPA except the CPA criterion itself.
  int max_alloc = 0;
  for (int a : alloc) max_alloc = std::max(max_alloc, a);
  EXPECT_GT(max_alloc, 8);
}

TEST(Baselines, SerialAndMaxPar) {
  const auto g = fork_join(3);
  const IdealCost cost;
  const auto seq = SerialAllocator{}.allocate(g, cost, 32);
  const auto maxp = MaxParAllocator{}.allocate(g, cost, 32);
  for (int a : seq) EXPECT_EQ(a, 1);
  for (int a : maxp) EXPECT_EQ(a, 32);
}

TEST(Factory, KnownAndUnknownNames) {
  for (const char* name : {"CPA", "HCPA", "MCPA", "SEQ", "MAXPAR"}) {
    EXPECT_EQ(make_allocator(name)->name(), name);
  }
  EXPECT_THROW(make_allocator("HEFT"), InvalidArgument);
}

TEST(Allocation, EmptyDagRejected) {
  Dag g;
  const IdealCost cost;
  EXPECT_THROW(CpaAllocator{}.allocate(g, cost, 4), InvalidArgument);
}

TEST(Allocation, InvalidPRejected) {
  const auto g = chain(2);
  const IdealCost cost;
  EXPECT_THROW(CpaAllocator{}.allocate(g, cost, 0), InvalidArgument);
}

TEST(CpaMetrics, MatchesHandComputation) {
  // Two independent tasks, P = 4, all allocations 1.
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);  // W = 16e9 flops -> tau = 16 s
  g.add_task(TaskKernel::MatMul, 2000);
  const IdealCost cost;
  const auto m = cpa_metrics(g, cost, {1, 1}, 4);
  EXPECT_DOUBLE_EQ(m.t_cp, 16.0);
  EXPECT_DOUBLE_EQ(m.t_a, (16.0 + 16.0) / 4.0);
}

TEST(CpaMetrics, SizeMismatchThrows) {
  const auto g = chain(3);
  const IdealCost cost;
  EXPECT_THROW(cpa_metrics(g, cost, {1, 1}, 4), InvalidArgument);
}

/// Property sweep over the Table I suite: all three algorithms produce
/// valid allocations, MCPA respects level budgets and HCPA respects its
/// width cap, under a cost model with realistic overheads.
class AllocatorProperties : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<GeneratedDag>& suite() {
    static const auto s = generate_table1_suite();
    return s;
  }
};

TEST_P(AllocatorProperties, AllAlgorithmsProduceValidAllocations) {
  const auto& inst = suite()[GetParam()];
  const IdealCost cost(/*startup=*/1.0);
  const int P = 32;
  for (const char* name : {"CPA", "HCPA", "MCPA"}) {
    const auto alloc = make_allocator(name)->allocate(inst.graph, cost, P);
    ASSERT_EQ(alloc.size(), inst.graph.num_tasks());
    for (int a : alloc) {
      EXPECT_GE(a, 1);
      EXPECT_LE(a, P);
    }
  }
  // MCPA level budgets.
  const auto mcpa = McpaAllocator{}.allocate(inst.graph, cost, P);
  const auto levels = inst.graph.precedence_levels();
  std::vector<int> per_level(inst.graph.num_levels(), 0);
  for (TaskId t = 0; t < inst.graph.num_tasks(); ++t) {
    per_level[levels[t]] += mcpa[t];
  }
  for (int total : per_level) EXPECT_LE(total, P);
}

INSTANTIATE_TEST_SUITE_P(Table1, AllocatorProperties,
                         ::testing::Range<std::size_t>(0, 54, 5));

/// Non-monotone cost with exact binary arithmetic: ideal speedup up to 4
/// processors, then time proportional to p up to 8 (every gain exactly
/// zero), then growing faster still (negative gains). Same-shape tasks
/// share the curve, so exact gain ties are everywhere.
class BumpyCost final : public SchedCost {
 public:
  double exec_time(const Task& t, int p) const override {
    const double s = t.kernel == TaskKernel::MatMul ? 8.0 : 2.0;
    if (p <= 4) return s / p;
    if (p <= 8) return s * p / 16.0;
    return s * (p - 6) / 4.0;
  }
  double startup_time(int) const override { return 0.0; }
  double redist_time(const Task&, int, int) const override { return 0.0; }
};

/// Naive reference for the whole CPA family: recomputes levels, gains and
/// the average area from scratch every iteration with fresh cost calls,
/// and asks the growth gate before computing a gain, exactly as the
/// pre-incremental implementation did. The production skeleton (position
/// sweeps, cached gains, memoized task times) must match it
/// allocation-for-allocation.
std::vector<int> reference_allocation(const std::string& algo, const Dag& g,
                                      const SchedCost& cost, int P) {
  constexpr double kEps = 1e-12;
  const std::size_t n = g.num_tasks();
  const auto tt = [&](TaskId t, int p) { return cost.task_time(g.task(t), p); };
  // HCPA: width cap ceil(P / widest level) plus the 0.8 efficiency
  // envelope. MCPA: summed allocation per precedence level below P.
  const auto& level = g.precedence_levels();
  std::vector<int> level_total(g.num_levels(), 0);
  for (TaskId t = 0; t < n; ++t) ++level_total[level[t]];
  const int omega = *std::max_element(level_total.begin(), level_total.end());
  const int cap = std::max(1, static_cast<int>(std::ceil(
                                  static_cast<double>(P) / omega)));
  const auto may_grow = [&](TaskId t, int np) {
    if (algo == "MCPA") return level_total[level[t]] < P;
    if (algo != "HCPA") return true;
    if (np > cap) return false;
    const auto eff = [&](int p) { return tt(t, 1) / (p * tt(t, p)); };
    return eff(np) >= 0.8 || (np < P && eff(np + 1) >= 0.8);
  };
  std::vector<int> alloc(n, 1);
  std::vector<double> tau(n);
  for (TaskId t = 0; t < n; ++t) tau[t] = tt(t, 1);
  std::vector<std::vector<TaskId>> succs(n);
  for (const Edge& e : g.edges()) succs[e.src].push_back(e.dst);
  const std::size_t max_iter = n * static_cast<std::size_t>(P);
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    // Full top/bottom-level DP.
    std::vector<double> top(n, 0.0), bottom(n, 0.0);
    const auto order = g.topological_order();
    for (TaskId t : order) {
      for (TaskId p : g.predecessors(t)) {
        top[t] = std::max(top[t], top[p] + tau[p]);
      }
    }
    double t_cp = 0.0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const TaskId t = *it;
      bottom[t] = tau[t];
      for (TaskId s : succs[t]) {
        bottom[t] = std::max(bottom[t], tau[t] + bottom[s]);
      }
      t_cp = std::max(t_cp, top[t] + bottom[t]);
    }
    // Full average area with fresh cost calls.
    double area = 0.0;
    for (TaskId t = 0; t < n; ++t) {
      area += static_cast<double>(alloc[t]) * cost.task_time(g.task(t), alloc[t]);
    }
    const double t_a = area / static_cast<double>(P);
    if (t_cp <= t_a + kEps) break;
    TaskId best = kInvalidTask;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (TaskId t = 0; t < n; ++t) {
      if (top[t] + bottom[t] < t_cp - 1e-9 * t_cp) continue;
      if (alloc[t] >= P) continue;
      if (!may_grow(t, alloc[t] + 1)) continue;
      const double tau_new = tt(t, alloc[t] + 1);
      const double gain = tau[t] / static_cast<double>(alloc[t]) -
                          tau_new / static_cast<double>(alloc[t] + 1);
      if (gain > best_gain + kEps) {
        best_gain = gain;
        best = t;
      }
    }
    if (best == kInvalidTask) break;
    alloc[best] += 1;
    tau[best] = tt(best, alloc[best]);
    ++level_total[level[best]];
  }
  return alloc;
}

/// Runs every CPA-family allocator against the naive reference on `g`.
/// Exact equality: the level sweeps, cached gains and memoized cost
/// curves must not shift a single growth decision.
void expect_matches_reference(const Dag& g, const SchedCost& cost,
                              const std::string& label) {
  for (const char* algo : {"CPA", "HCPA", "MCPA"}) {
    for (int P : {1, 2, 16, 32}) {
      EXPECT_EQ(make_allocator(algo)->allocate(g, cost, P),
                reference_allocation(algo, g, cost, P))
          << label << " " << algo << " P=" << P;
    }
  }
}

class CpaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CpaEquivalence, IncrementalSkeletonMatchesNaiveReference) {
  DagGenParams p;
  p.num_tasks = 40 + GetParam() * 23;
  p.width = 2 + GetParam() % 5;
  p.add_ratio = 0.4;
  p.matrix_dim = 1000 + 200 * (GetParam() % 4);
  p.seed = static_cast<std::uint64_t>(GetParam()) * 101 + 3;
  const auto inst = generate_random_dag(p);
  const std::string label = "tasks=" + std::to_string(p.num_tasks);
  // Startup makes the speedup curves non-ideal, so gains shrink and the
  // best-candidate comparisons are genuinely exercised.
  expect_matches_reference(inst.graph, IdealCost(/*startup=*/0.2), label);
  expect_matches_reference(inst.graph, BumpyCost{}, label + " bumpy");
}

INSTANTIATE_TEST_SUITE_P(RandomDags, CpaEquivalence, ::testing::Range(0, 8));

TEST(CpaFamilyReference, Table1SuiteSliceMatchesNaiveReference) {
  const auto suite = generate_table1_suite();
  for (std::size_t i = 0; i < suite.size(); i += 6) {
    expect_matches_reference(suite[i].graph, IdealCost(/*startup=*/1.0),
                             suite[i].name);
    expect_matches_reference(suite[i].graph, BumpyCost{},
                             suite[i].name + " bumpy");
  }
}

/// A root fanning out to hubs of out-degree 0..10, hub d feeding the
/// first d tasks of a layer (whose fan-ins therefore run 10 down to 0),
/// and a sink joining five of them: every chunk boundary of the level
/// sweeps' padded rows, which generate_random_dag (fan-in 2, out-degrees
/// spread over 0..7) does not reach.
Dag chunk_boundary_dag() {
  constexpr int kHubs = 11;
  Dag g;
  const TaskId root = g.add_task(TaskKernel::MatMul, 2000);
  std::vector<TaskId> hubs, layer;
  for (int d = 0; d < kHubs; ++d) {
    hubs.push_back(g.add_task(d % 2 ? TaskKernel::MatAdd : TaskKernel::MatMul,
                              d % 3 ? 2000 : 1000));
    g.add_edge(root, hubs.back());
  }
  for (int j = 0; j <= kHubs; ++j) {
    layer.push_back(g.add_task(j % 2 ? TaskKernel::MatMul : TaskKernel::MatAdd,
                               1500));
  }
  for (int d = 0; d < kHubs; ++d) {
    for (int j = 0; j < d; ++j) g.add_edge(hubs[d], layer[j]);
  }
  const TaskId sink = g.add_task(TaskKernel::MatMul, 1000);
  for (int j = 0; j < 5; ++j) g.add_edge(layer[j], sink);
  return g;
}

/// `g` with task i renamed to new_id[i]: tasks are re-added in new-id
/// order and edges in their original order.
Dag relabel(const Dag& g, const std::vector<TaskId>& new_id) {
  std::vector<TaskId> old_of(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) old_of[new_id[t]] = t;
  Dag r;
  for (const TaskId t : old_of) {
    r.add_task(g.task(t).kernel, g.task(t).matrix_dim, g.task(t).name);
  }
  for (const Edge& e : g.edges()) r.add_edge(new_id[e.src], new_id[e.dst]);
  return r;
}

/// Reverses the ids, so every edge points from a larger id to a smaller.
Dag reversed_ids(const Dag& g) {
  std::vector<TaskId> new_id(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    new_id[t] = static_cast<TaskId>(g.num_tasks() - 1 - t);
  }
  return relabel(g, new_id);
}

/// Interleaves the ids (task i becomes 7i mod n, n not a multiple of 7).
Dag strided_ids(const Dag& g) {
  const std::size_t n = g.num_tasks();
  EXPECT_NE(n % 7, 0u);
  std::vector<TaskId> new_id(n);
  for (TaskId t = 0; t < n; ++t) new_id[t] = static_cast<TaskId>(7 * t % n);
  return relabel(g, new_id);
}

TEST(CpaFamilyReference, PaddedRowsAndRelabelledIdsMatchNaiveReference) {
  const Dag boundary = chunk_boundary_dag();
  DaggenParams dp;
  dp.num_tasks = 60;
  dp.fat = 0.4;
  dp.density = 0.9;
  dp.jump = 3;
  dp.seed = 17;
  const Dag daggen = generate_daggen(dp);
  const Dag random =
      generate_random_dag({.num_tasks = 121, .width = 8, .seed = 11}).graph;

  // The boundary DAG reaches every out-degree the padded successor rows
  // split on, and fan-ins of 3 and more (DAGGEN, like the Table-I
  // generator, caps fan-in at 2: its kernels are binary).
  std::vector<int> in(boundary.num_tasks(), 0), out(boundary.num_tasks(), 0);
  for (const Edge& e : boundary.edges()) {
    ++out[e.src];
    ++in[e.dst];
  }
  for (int d : {0, 4, 5, 8, 9, 10, 11}) {
    EXPECT_NE(std::count(out.begin(), out.end(), d), 0) << "out-degree " << d;
  }
  EXPECT_GE(*std::max_element(in.begin(), in.end()), 10);

  struct Case {
    std::string label;
    Dag g;
    bool relabelled;
  };
  const Case cases[] = {
      {"boundary", boundary, false},
      {"boundary reversed", reversed_ids(boundary), true},
      {"daggen", daggen, false},
      {"daggen strided", strided_ids(daggen), true},
      {"random reversed", reversed_ids(random), true},
      {"random strided", strided_ids(random), true},
  };
  for (const auto& [label, g, relabelled] : cases) {
    if (relabelled) {
      const auto& order = g.topological_order();
      EXPECT_FALSE(std::is_sorted(order.begin(), order.end())) << label;
    }
    expect_matches_reference(g, IdealCost(/*startup=*/0.2), label);
    expect_matches_reference(g, BumpyCost{}, label + " bumpy");
  }
}

/// Forwards to a base cost and counts the task_time_curve calls per
/// (kernel, matrix_dim) shape.
class CurveCountingCost final : public SchedCost {
 public:
  explicit CurveCountingCost(const SchedCost& base) : base_(base) {}
  double exec_time(const Task& t, int p) const override {
    return base_.exec_time(t, p);
  }
  double startup_time(int p) const override { return base_.startup_time(p); }
  double redist_time(const Task& t, int p_src, int p_dst) const override {
    return base_.redist_time(t, p_src, p_dst);
  }
  void task_time_curve(const Task& t, std::span<double> out) const override {
    ++curve_calls[{t.kernel, t.matrix_dim}];
    base_.task_time_curve(t, out);
  }

  mutable std::map<std::pair<TaskKernel, int>, int> curve_calls;

 private:
  const SchedCost& base_;
};

TEST(CostTable, AllocatorsFetchOneTaskCurvePerShape) {
  // 40 tasks, two shapes: MatAdd and MatMul at one matrix dimension.
  const auto g =
      generate_random_dag({.num_tasks = 40, .width = 4, .seed = 3}).graph;
  const IdealCost base(/*startup=*/0.2);
  for (const char* algo : {"CPA", "HCPA", "MCPA"}) {
    const CurveCountingCost cost(base);
    make_allocator(algo)->allocate(g, cost, 32);
    ASSERT_EQ(cost.curve_calls.size(), 2u) << algo;
    for (const auto& [shape, calls] : cost.curve_calls) {
      EXPECT_EQ(calls, 1) << algo << " dim " << shape.second;
    }
  }
}

}  // namespace
