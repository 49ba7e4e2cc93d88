// Tests for the M-HEFT one-phase scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/sched/mheft.hpp"

namespace {

using namespace mtsched;
using namespace mtsched::sched;
using namespace mtsched::dag;

/// tau(t, p) = W/p + overhead*p: a cost curve with an interior optimum.
class SaturatingCost final : public SchedCost {
 public:
  SaturatingCost(double work, double overhead, double redist = 0.0)
      : work_(work), overhead_(overhead), redist_(redist) {}
  double exec_time(const Task&, int p) const override {
    return work_ / p + overhead_ * p;
  }
  double startup_time(int) const override { return 0.0; }
  double redist_time(const Task&, int, int) const override {
    return redist_;
  }

 private:
  double work_, overhead_, redist_;
};

TEST(MHeft, SingleTaskPicksTheCostOptimum) {
  // W = 64, overhead = 1: tau minimized at p = 8 (64/8 + 8 = 16).
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  const SaturatingCost cost(64.0, 1.0);
  const MHeftScheduler mheft(cost, 32);
  const auto s = mheft.schedule(g);
  EXPECT_EQ(s.placements[0].procs.size(), 8u);
  EXPECT_DOUBLE_EQ(s.est_makespan, 16.0);
}

TEST(MHeft, TieGoesToSmallerAllocation) {
  // Flat cost: every p gives the same finish; p = 1 must win.
  class Flat final : public SchedCost {
   public:
    double exec_time(const Task&, int) const override { return 5.0; }
    double startup_time(int) const override { return 0.0; }
    double redist_time(const Task&, int, int) const override { return 0.0; }
  };
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  const Flat cost;
  const MHeftScheduler mheft(cost, 32);
  const auto s = mheft.schedule(g);
  EXPECT_EQ(s.placements[0].procs.size(), 1u);
}

TEST(MHeft, IndependentTasksSpreadAcrossTheMachine) {
  Dag g;
  for (int i = 0; i < 4; ++i) g.add_task(TaskKernel::MatMul, 2000);
  const SaturatingCost cost(64.0, 1.0);
  const MHeftScheduler mheft(cost, 32);
  const auto s = mheft.schedule(g);
  // 4 tasks x 8 procs fit side by side: all start at 0.
  for (const auto& pl : s.placements) {
    EXPECT_DOUBLE_EQ(pl.est_start, 0.0);
  }
}

TEST(MHeft, ScarcityShrinksAllocations) {
  // W = 12, overhead = 1 on P = 5: the first task takes its cost-optimal
  // 3 processors (tau = 7). For the second, waiting for 3 processors
  // (7 + 7 = 14) loses to running on the 2 idle ones right away
  // (tau(2) = 8) — M-HEFT narrows under scarcity, which a two-step
  // algorithm cannot do.
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  g.add_task(TaskKernel::MatMul, 2000);
  const SaturatingCost cost(12.0, 1.0);
  const MHeftScheduler mheft(cost, 5);
  const auto s = mheft.schedule(g);
  EXPECT_EQ(s.placements[0].procs.size(), 3u);
  EXPECT_EQ(s.placements[1].procs.size(), 2u);
  EXPECT_DOUBLE_EQ(s.placements[1].est_finish, 8.0);
}

TEST(MHeft, RespectsMaxAllocCap) {
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  const SaturatingCost cost(1000.0, 0.0);  // wants everything
  const MHeftScheduler capped(cost, 32, 4);
  EXPECT_EQ(capped.schedule(g).placements[0].procs.size(), 4u);
}

TEST(MHeft, AccountsRedistributionInEst) {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatMul, 2000, "b");
  g.add_edge(a, b);
  const SaturatingCost cost(64.0, 1.0, /*redist=*/2.5);
  const MHeftScheduler mheft(cost, 32);
  const auto s = mheft.schedule(g);
  EXPECT_DOUBLE_EQ(s.placements[b].est_start,
                   s.placements[a].est_finish + 2.5);
}

TEST(MHeft, Validation) {
  const SaturatingCost cost(64.0, 1.0);
  EXPECT_THROW(MHeftScheduler(cost, 0), core::InvalidArgument);
  EXPECT_THROW(MHeftScheduler(cost, 8, 9), core::InvalidArgument);
  Dag empty;
  const MHeftScheduler mheft(cost, 8);
  EXPECT_THROW(mheft.schedule(empty), core::InvalidArgument);
}

/// Sweep over the Table I suite: M-HEFT schedules always validate.
class MHeftSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MHeftSuite, SchedulesValidate) {
  static const auto suite = generate_table1_suite();
  const auto& inst = suite[GetParam()];
  const SaturatingCost cost(40.0, 0.4, 0.8);
  const MHeftScheduler mheft(cost, 32);
  const auto s = mheft.schedule(inst.graph);
  EXPECT_NO_THROW(validate_schedule(inst.graph, s, 32));
  EXPECT_GT(s.est_makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Table1, MHeftSuite,
                         ::testing::Range<std::size_t>(0, 54, 6));

/// Naive M-HEFT reference: rescans the priority list for the next ready
/// task, re-ranks the processors by (availability, id) per placement and
/// asks the SchedCost scalars for every (task, p) and (producer, p_src, p)
/// it needs. The production scheduler (ready queue, incremental ranking,
/// cached cost curves) must match it placement-for-placement,
/// bit-for-bit.
Schedule reference_mheft(const Dag& g, const SchedCost& cost, int P) {
  const std::size_t n = g.num_tasks();
  std::vector<double> bl(n, 0.0);
  std::vector<std::vector<TaskId>> succs(n);
  for (const Edge& e : g.edges()) succs[e.src].push_back(e.dst);
  const auto topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId t = *it;
    const double tau = cost.task_time(g.task(t), 1);
    bl[t] = tau;
    for (TaskId s : succs[t]) bl[t] = std::max(bl[t], tau + bl[s]);
  }
  std::vector<TaskId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (bl[a] != bl[b]) return bl[a] > bl[b];
    return a < b;
  });
  std::vector<bool> placed(n, false);
  Schedule s;
  s.placements.resize(n);
  s.proc_order.assign(static_cast<std::size_t>(P), {});
  std::vector<double> proc_ready(static_cast<std::size_t>(P), 0.0);
  for (std::size_t done = 0; done < n; ++done) {
    TaskId chosen = kInvalidTask;
    for (TaskId cand : order) {
      if (placed[cand]) continue;
      const auto& preds = g.predecessors(cand);
      if (std::all_of(preds.begin(), preds.end(),
                      [&](TaskId q) { return placed[q]; })) {
        chosen = cand;
        break;
      }
    }
    std::vector<int> ranked(static_cast<std::size_t>(P));
    std::iota(ranked.begin(), ranked.end(), 0);
    std::stable_sort(ranked.begin(), ranked.end(), [&](int a, int b) {
      return proc_ready[static_cast<std::size_t>(a)] <
             proc_ready[static_cast<std::size_t>(b)];
    });
    double best_finish = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    int best_p = 1;
    for (int p = 1; p <= P; ++p) {
      double data_ready = 0.0;
      for (TaskId q : g.predecessors(chosen)) {
        const auto& qp = s.placements[q];
        data_ready = std::max(
            data_ready,
            qp.est_finish + cost.redist_time(g.task(q),
                                             static_cast<int>(qp.procs.size()),
                                             p));
      }
      double avail = 0.0;
      for (int i = 0; i < p; ++i) {
        avail = std::max(avail,
                         proc_ready[static_cast<std::size_t>(ranked[i])]);
      }
      const double start = std::max(data_ready, avail);
      const double finish = start + cost.task_time(g.task(chosen), p);
      if (finish < best_finish - 1e-12) {
        best_finish = finish;
        best_start = start;
        best_p = p;
      }
    }
    auto& pl = s.placements[chosen];
    pl.procs.assign(ranked.begin(), ranked.begin() + best_p);
    std::sort(pl.procs.begin(), pl.procs.end());
    pl.est_start = best_start;
    pl.est_finish = best_finish;
    for (int pr : pl.procs) {
      proc_ready[static_cast<std::size_t>(pr)] = best_finish;
      s.proc_order[static_cast<std::size_t>(pr)].push_back(chosen);
    }
    placed[chosen] = true;
    s.est_makespan = std::max(s.est_makespan, best_finish);
  }
  return s;
}

TEST(MHeftReference, Table1SuiteSliceMatchesScalarReference) {
  static const exp::Lab lab;
  const auto suite = generate_table1_suite();
  const int P = lab.spec().num_nodes;
  for (const char* kind : {"analytical", "profile"}) {
    const models::SchedCostAdapter cost(
        lab.model(models::ModelSpec::parse(kind)));
    for (std::size_t i = 0; i < suite.size(); i += 9) {
      const auto& g = suite[i].graph;
      const auto fast = MHeftScheduler(cost, P).schedule(g);
      const auto ref = reference_mheft(g, cost, P);
      const std::string what = std::string(kind) + " " + suite[i].name;
      ASSERT_EQ(fast.placements.size(), ref.placements.size()) << what;
      for (std::size_t t = 0; t < ref.placements.size(); ++t) {
        EXPECT_EQ(fast.placements[t].procs, ref.placements[t].procs)
            << what << " task " << t;
        EXPECT_EQ(fast.placements[t].est_start, ref.placements[t].est_start)
            << what << " task " << t;
        EXPECT_EQ(fast.placements[t].est_finish, ref.placements[t].est_finish)
            << what << " task " << t;
      }
      EXPECT_EQ(fast.proc_order, ref.proc_order) << what;
      EXPECT_EQ(fast.est_makespan, ref.est_makespan) << what;
    }
  }
}

}  // namespace
