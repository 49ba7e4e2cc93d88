// sched::CostCurveTable, the DAG-bound memo every allocator and mapper
// builds: served values are bit-identical to the base model's, each
// distinct shape reaches the base model once, and every query range-checks
// its processor counts.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/sched/cost.hpp"

namespace {

using namespace mtsched;

const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

/// Forwards every estimate to a base model and counts the calls that fill
/// a table entry.
class CountingCost final : public sched::SchedCost {
 public:
  explicit CountingCost(const sched::SchedCost& base) : base_(base) {}

  double exec_time(const dag::Task& t, int p) const override {
    return base_.exec_time(t, p);
  }
  double startup_time(int p) const override { return base_.startup_time(p); }
  double redist_time(const dag::Task& producer, int p_src,
                     int p_dst) const override {
    ++redist_calls;
    return base_.redist_time(producer, p_src, p_dst);
  }
  double redist_overhead_time(int p_src, int p_dst) const override {
    ++overhead_calls;
    return base_.redist_overhead_time(p_src, p_dst);
  }
  void task_time_curve(const dag::Task& t,
                       std::span<double> out) const override {
    ++curve_calls;
    base_.task_time_curve(t, out);
  }
  void redist_time_curve(const dag::Task& producer, int p_src,
                         std::span<double> out) const override {
    ++curve_calls;
    base_.redist_time_curve(producer, p_src, out);
  }

  mutable int curve_calls = 0;
  mutable int redist_calls = 0;
  mutable int overhead_calls = 0;

 private:
  const sched::SchedCost& base_;
};

class CostCurveTableTest : public ::testing::Test {
 protected:
  CostCurveTableTest()
      : base_(lab().model(models::ModelSpec::parse("profile"))),
        P_(lab().spec().num_nodes) {}

  static dag::Dag random_dag(int tasks, std::uint64_t seed) {
    return dag::generate_random_dag(
               {.num_tasks = tasks, .width = 4, .seed = seed})
        .graph;
  }

  models::SchedCostAdapter base_;
  int P_;
};

TEST_F(CostCurveTableTest, ServesBitIdenticalValues) {
  const auto g = random_dag(12, 5);
  const sched::CostCurveTable table(base_, P_, g);
  for (const auto& t : g.tasks()) {
    for (int p = 1; p <= P_; ++p) {
      EXPECT_EQ(table.tau(t.id, p), base_.task_time(t, p));
      for (int q = 1; q <= P_; ++q) {
        EXPECT_EQ(table.redist(t.id, p, q), base_.redist_time(t, p, q));
        EXPECT_EQ(table.redist_overhead_time(p, q),
                  base_.redist_overhead_time(p, q));
      }
    }
  }
}

TEST_F(CostCurveTableTest, CurveQueriesMatchTheBaseCurves) {
  const auto g = random_dag(6, 9);
  const sched::CostCurveTable table(base_, P_, g);
  std::vector<double> want(static_cast<std::size_t>(P_));
  for (const auto& t : g.tasks()) {
    base_.task_time_curve(t, want);
    const auto row = table.task_row(t.id);
    EXPECT_EQ(want, std::vector<double>(row.begin(), row.end()));
    for (int p = 1; p <= P_; ++p) {
      base_.redist_time_curve(t, p, want);
      const auto curve = table.redist_curve(t.id, p, want.size());
      EXPECT_EQ(want, std::vector<double>(curve.begin(), curve.end()));
    }
  }
  // A prefix query on an unfilled row fills just that prefix, and reads
  // the same values as the base curve of that length.
  const sched::CostCurveTable fresh(base_, P_, g);
  std::vector<double> prefix(2);
  base_.redist_time_curve(g.task(0), 3, prefix);
  const auto got = fresh.redist_curve(0, 3, prefix.size());
  EXPECT_EQ(prefix, std::vector<double>(got.begin(), got.end()));
  EXPECT_EQ(fresh.redist(0, 3, P_), base_.redist_time(g.task(0), 3, P_));
}

TEST_F(CostCurveTableTest, FillsEachShapeOnce) {
  const auto g = random_dag(40, 3);
  const CountingCost counting(base_);
  const sched::CostCurveTable table(counting, P_, g);
  // 40 tasks, but only (kernel, dim) shapes distinct: MatAdd and MatMul
  // at one dimension = 2 shapes, so 2 task-row fills up front.
  EXPECT_EQ(counting.curve_calls, 2);
  for (const auto& t : g.tasks()) (void)table.tau(t.id, P_);
  EXPECT_EQ(counting.curve_calls, 2);  // rows are served, never refilled
  // Redistribution rows fill per (shape, p_src), once.
  const auto len = static_cast<std::size_t>(P_);
  for (int round = 0; round < 2; ++round) {
    for (const auto& t : g.tasks()) {
      (void)table.redist_curve(t.id, 1, len);
      (void)table.redist_curve(t.id, 2, len);
    }
  }
  EXPECT_EQ(counting.curve_calls, 2 + 4);
  // Scalar queries read filled cells, and fill a missing one once.
  for (const auto& t : g.tasks()) (void)table.redist(t.id, 2, 5);
  EXPECT_EQ(counting.redist_calls, 0);
  for (const auto& t : g.tasks()) (void)table.redist(t.id, 3, 5);
  EXPECT_EQ(counting.redist_calls, 2);
  for (int round = 0; round < 2; ++round) {
    (void)table.redist_overhead_time(1, 2);
    (void)table.redist_overhead_time(2, 1);
  }
  EXPECT_EQ(counting.overhead_calls, 2);
}

TEST_F(CostCurveTableTest, RejectsOversizedQueries) {
  const auto g = random_dag(2, 1);
  EXPECT_THROW(sched::CostCurveTable(base_, 0, g), core::InvalidArgument);
  // The analytical model answers overhead for any p, so the table's own
  // range check is what must reject these.
  const models::SchedCostAdapter analytical(
      lab().model(models::ModelSpec::parse("analytical")));
  const sched::CostCurveTable table(analytical, P_, g);
  for (int bad : {0, P_ + 1}) {
    EXPECT_THROW(table.tau(0, bad), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist(0, bad, 1), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist(0, 1, bad), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist_curve(0, bad, 1), core::InvalidArgument) << bad;
    EXPECT_THROW(table.redist_overhead_time(bad, 1), core::InvalidArgument)
        << bad;
    EXPECT_THROW(table.redist_overhead_time(1, bad), core::InvalidArgument)
        << bad;
  }
  EXPECT_THROW(table.redist_curve(0, 1, static_cast<std::size_t>(P_) + 1),
               core::InvalidArgument);
}

}  // namespace
