// Tests for the three simulator cost models.
#include <gtest/gtest.h>

#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/empirical.hpp"
#include "mtsched/models/profile.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/platform/topology.hpp"

#include "platform_util.hpp"

namespace {

using namespace mtsched::models;
using namespace mtsched::dag;
using mtsched::core::InvalidArgument;
using mtsched::test_util::route_latency;

Task mm_task(int n = 2000) {
  Task t;
  t.id = 0;
  t.kernel = TaskKernel::MatMul;
  t.matrix_dim = n;
  return t;
}

Task add_task(int n = 2000) {
  Task t;
  t.id = 1;
  t.kernel = TaskKernel::MatAdd;
  t.matrix_dim = n;
  return t;
}

TEST(Analytical, FlopsDividedEvenly) {
  const AnalyticalModel m(mtsched::platform::bayreuth32());
  const auto cost = m.task_sim_cost(mm_task(), 4);
  ASSERT_EQ(cost.flops_per_rank.size(), 4u);
  for (double f : cost.flops_per_rank) {
    EXPECT_DOUBLE_EQ(f, kernel_flops(TaskKernel::MatMul, 2000) / 4.0);
  }
  EXPECT_DOUBLE_EQ(cost.fixed_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cost.startup_seconds, 0.0);
  EXPECT_FALSE(cost.is_fixed());
}

TEST(Analytical, RingCommunicationPattern) {
  const AnalyticalModel m(mtsched::platform::bayreuth32());
  const auto cost = m.task_sim_cost(mm_task(), 3);
  const double expected = 2.0 * (2000.0 * 2000.0 / 3.0) * 8.0;  // (p-1)n^2/p*8
  using mtsched::simcore::Flow;
  EXPECT_EQ(cost.flows, (std::vector<Flow>{{0, 1, expected},
                                           {1, 2, expected},
                                           {2, 0, expected}}));
}

TEST(Analytical, AdditionHasNoCommunication) {
  const AnalyticalModel m(mtsched::platform::bayreuth32());
  const auto cost = m.task_sim_cost(add_task(), 8);
  EXPECT_TRUE(cost.flows.empty());
}

TEST(Analytical, SequentialTaskHasNoCommunication) {
  EXPECT_DOUBLE_EQ(AnalyticalModel::ring_bytes(TaskKernel::MatMul, 2000, 1),
                   0.0);
}

TEST(Analytical, NoOverheadsExist) {
  const AnalyticalModel m(mtsched::platform::bayreuth32());
  EXPECT_DOUBLE_EQ(m.startup_estimate(16), 0.0);
  EXPECT_DOUBLE_EQ(m.redist_overhead(8, 16), 0.0);
}

TEST(Analytical, ExecEstimateMatchesBottleneckFormula) {
  const auto spec = mtsched::platform::bayreuth32();
  const AnalyticalModel m(spec);
  // Sequential: pure compute, no latency.
  EXPECT_DOUBLE_EQ(
      m.exec_estimate(mm_task(), 1),
      kernel_flops(TaskKernel::MatMul, 2000) / spec.reference_flops());
  // Parallel: compute dominates at small p; latency added once.
  const double comp4 =
      kernel_flops(TaskKernel::MatMul, 2000) / 4.0 / spec.reference_flops();
  EXPECT_NEAR(m.exec_estimate(mm_task(), 4),
              comp4 + route_latency(spec.topology(), 0, 1),
              1e-9);
}

TEST(Analytical, EstimateDecreasesWithP) {
  const AnalyticalModel m(mtsched::platform::bayreuth32());
  double prev = m.exec_estimate(mm_task(), 1);
  for (int p = 2; p <= 32; ++p) {
    const double cur = m.exec_estimate(mm_task(), p);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

ProfileTables small_tables() {
  ProfileTables t;
  t.exec[{TaskKernel::MatMul, 2000}] = {40.0, 21.0, 15.0, 12.0};
  t.exec[{TaskKernel::MatAdd, 2000}] = {8.0, 4.5, 3.2, 2.8};
  t.startup = {0.8, 0.9, 1.0, 1.1};
  t.redist_by_dst = {0.10, 0.11, 0.12, 0.14};
  return t;
}

mtsched::platform::ClusterSpec four_nodes() {
  return mtsched::platform::bayreuth32(4);
}

TEST(Profile, LooksUpMeasuredValues) {
  const ProfileModel m(four_nodes(), small_tables());
  EXPECT_DOUBLE_EQ(m.exec_estimate(mm_task(), 2), 21.0);
  EXPECT_DOUBLE_EQ(m.startup_estimate(3), 1.0);
  EXPECT_DOUBLE_EQ(m.redist_overhead(1, 4), 0.14);
  EXPECT_DOUBLE_EQ(m.redist_overhead(4, 4), 0.14);  // src-independent
}

TEST(Profile, TaskCostSplitsStartupAndExec) {
  const ProfileModel m(four_nodes(), small_tables());
  const auto cost = m.task_sim_cost(mm_task(), 2);
  EXPECT_TRUE(cost.is_fixed());
  EXPECT_DOUBLE_EQ(cost.startup_seconds, 0.9);
  EXPECT_DOUBLE_EQ(cost.fixed_seconds, 21.0);
}

TEST(Profile, MissingEntriesThrow) {
  const ProfileModel m(four_nodes(), small_tables());
  EXPECT_THROW(m.exec_estimate(mm_task(3000), 2), InvalidArgument);
  EXPECT_THROW(m.exec_estimate(mm_task(), 5), InvalidArgument);
  EXPECT_THROW(m.startup_estimate(9), InvalidArgument);
  EXPECT_THROW(m.redist_overhead(1, 9), InvalidArgument);
}

TEST(Profile, RejectsBadTables) {
  EXPECT_THROW(ProfileModel(four_nodes(), ProfileTables{}), InvalidArgument);
  auto t = small_tables();
  t.exec[{TaskKernel::MatMul, 2000}] = {1.0, -2.0};
  EXPECT_THROW(ProfileModel(four_nodes(), t), InvalidArgument);
  t = small_tables();
  t.startup.clear();
  EXPECT_THROW(ProfileModel(four_nodes(), t), InvalidArgument);
}

EmpiricalFits small_fits() {
  EmpiricalFits f;
  mtsched::stats::PiecewiseFit mm;
  mm.small_p = {240.0, 2.0, 1.0, 0.0};  // 240/p + 2
  mm.large_p = {0.1, 5.0, 1.0, 0.0};    // 0.1p + 5
  mm.has_large = true;
  mm.split = 16;
  f.exec[{TaskKernel::MatMul, 2000}] = mm;
  mtsched::stats::PiecewiseFit add;
  add.small_p = {23.0, 0.03, 1.0, 0.0};
  add.has_large = false;
  add.split = 32;
  f.exec[{TaskKernel::MatAdd, 2000}] = add;
  f.startup = {0.03, 0.65, 1.0, 0.0};  // Table II task startup
  f.redist = {0.00788, 0.10858, 1.0, 0.0};  // Table II (seconds)
  return f;
}

TEST(Empirical, EvaluatesPiecewiseModel) {
  const EmpiricalModel m(mtsched::platform::bayreuth32(), small_fits());
  EXPECT_NEAR(m.exec_estimate(mm_task(), 4), 62.0, 1e-9);
  EXPECT_NEAR(m.exec_estimate(mm_task(), 24), 7.4, 1e-9);
  EXPECT_NEAR(m.exec_estimate(add_task(), 23), 1.03, 1e-9);
}

TEST(Empirical, OverheadsFromTable2Regressions) {
  const EmpiricalModel m(mtsched::platform::bayreuth32(), small_fits());
  EXPECT_NEAR(m.startup_estimate(10), 0.95, 1e-9);
  EXPECT_NEAR(m.redist_overhead(3, 10), 0.18738, 1e-9);
}

TEST(Empirical, ClampsNonPhysicalPredictions) {
  auto f = small_fits();
  f.exec[{TaskKernel::MatMul, 2000}].small_p = {1.0, -100.0, 1.0, 0.0};
  const EmpiricalModel m(mtsched::platform::bayreuth32(), f);
  EXPECT_GT(m.exec_estimate(mm_task(), 2), 0.0);
}

TEST(Empirical, MissingFitThrows) {
  const EmpiricalModel m(mtsched::platform::bayreuth32(), small_fits());
  EXPECT_THROW(m.exec_estimate(mm_task(3000), 2), InvalidArgument);
  EXPECT_THROW(EmpiricalModel(mtsched::platform::bayreuth32(),
                              EmpiricalFits{}),
               InvalidArgument);
}

TEST(Empirical, TaskCostSplitsStartupAndExec) {
  const EmpiricalModel m(mtsched::platform::bayreuth32(), small_fits());
  const auto cost = m.task_sim_cost(mm_task(), 4);
  EXPECT_TRUE(cost.is_fixed());
  EXPECT_NEAR(cost.startup_seconds, 0.77, 1e-9);
  EXPECT_NEAR(cost.fixed_seconds, 62.0, 1e-9);
}

TEST(RedistPayloadEstimate, ScalesWithMatrixAndRespectsLatency) {
  const auto spec = mtsched::platform::bayreuth32();
  const double small = redist_payload_estimate(spec, 1000, 4, 8);
  const double large = redist_payload_estimate(spec, 3000, 4, 8);
  EXPECT_GT(large, small);
  EXPECT_GE(small, route_latency(spec.topology(), 0, 1));
}

TEST(RedistEstimate, AddsOverheadToPayload) {
  const ProfileModel m(four_nodes(), small_tables());
  const double with = m.redist_estimate(mm_task(), 2, 4);
  const double payload =
      redist_payload_estimate(m.spec(), 2000, 2, 4);
  EXPECT_NEAR(with, payload + 0.14, 1e-12);
}

TEST(SchedCostAdapter, ForwardsAllQueries) {
  const ProfileModel m(four_nodes(), small_tables());
  const SchedCostAdapter a(m);
  EXPECT_DOUBLE_EQ(a.exec_time(mm_task(), 2), 21.0);
  EXPECT_DOUBLE_EQ(a.startup_time(3), 1.0);
  EXPECT_DOUBLE_EQ(a.redist_time(mm_task(), 2, 4),
                   m.redist_estimate(mm_task(), 2, 4));
  EXPECT_DOUBLE_EQ(a.task_time(mm_task(), 2), 21.9);
}

TEST(KindNames, AllDistinct) {
  EXPECT_STREQ(kind_name(CostModelKind::Analytical), "analytical");
  EXPECT_STREQ(kind_name(CostModelKind::Profile), "profile");
  EXPECT_STREQ(kind_name(CostModelKind::Empirical), "empirical");
}

/// The batched curve APIs promise bit-identical values to the scalar
/// calls — the schedulers rely on that to swap one for the other without
/// perturbing a single placement decision. Exact equality, no tolerance.
void expect_curves_match_scalars(const CostModel& m, const Task& t, int P) {
  const SchedCostAdapter a(m);
  std::vector<double> curve(static_cast<std::size_t>(P));
  a.task_time_curve(t, curve);
  for (int p = 1; p <= P; ++p) {
    EXPECT_EQ(curve[static_cast<std::size_t>(p - 1)], a.task_time(t, p))
        << m.name() << " task_time p=" << p;
  }
  for (int p_src : {1, 2, P}) {
    a.redist_time_curve(t, p_src, curve);
    for (int p = 1; p <= P; ++p) {
      EXPECT_EQ(curve[static_cast<std::size_t>(p - 1)],
                a.redist_time(t, p_src, p))
          << m.name() << " redist_time p_src=" << p_src << " p=" << p;
    }
  }
}

TEST(CostCurves, AnalyticalBitIdenticalToScalar) {
  const AnalyticalModel m(mtsched::platform::bayreuth32());
  expect_curves_match_scalars(m, mm_task(), 32);
  expect_curves_match_scalars(m, add_task(), 32);
}

TEST(CostCurves, ProfileBitIdenticalToScalar) {
  const ProfileModel m(four_nodes(), small_tables());
  expect_curves_match_scalars(m, mm_task(), 4);
  expect_curves_match_scalars(m, add_task(), 4);
}

TEST(CostCurves, EmpiricalBitIdenticalToScalar) {
  const EmpiricalModel m(mtsched::platform::bayreuth32(), small_fits());
  expect_curves_match_scalars(m, mm_task(), 32);
  expect_curves_match_scalars(m, add_task(), 32);
}

}  // namespace
