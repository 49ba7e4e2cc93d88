// Tests for the ground-truth machine behaviour models.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "mtsched/core/error.hpp"
#include "mtsched/machine/java_cluster.hpp"
#include "mtsched/machine/pdgemm.hpp"
#include "mtsched/stats/regression.hpp"

namespace {

using namespace mtsched::machine;
using mtsched::dag::TaskKernel;
using mtsched::core::InvalidArgument;

TEST(JavaCluster, EfficiencyWithinConfiguredBounds) {
  const JavaClusterConfig cfg;
  const JavaClusterModel m(cfg);
  for (TaskKernel k : {TaskKernel::MatMul, TaskKernel::MatAdd}) {
    for (int n : {2000, 3000}) {
      for (int p = 1; p <= 32; ++p) {
        const double e = m.efficiency(k, n, p);
        EXPECT_GE(e, cfg.eff_floor);
        EXPECT_LE(e, cfg.eff_ceil);
      }
    }
  }
}

TEST(JavaCluster, OutliersAtEightAndSixteen) {
  JavaClusterModel m;
  EXPECT_GT(m.outlier_factor(3000, 8), 1.3);
  EXPECT_GT(m.outlier_factor(3000, 16), 1.2);
  EXPECT_GT(m.outlier_factor(2000, 8), 1.0);
  EXPECT_DOUBLE_EQ(m.outlier_factor(3000, 9), 1.0);
  EXPECT_DOUBLE_EQ(m.outlier_factor(2000, 20), 1.0);
  // n = 3000 outliers are stronger than n = 2000 ones (paper VII-A).
  EXPECT_GT(m.outlier_factor(3000, 8), m.outlier_factor(2000, 8));
}

TEST(JavaCluster, OutlierVisibleInExecutionTime) {
  // Two machines differing only in the outlier factor: at (n=3000, p=8)
  // the execution time is inflated by exactly that factor (modulo the
  // compute/comm split).
  JavaClusterConfig with = {};
  JavaClusterConfig without = {};
  without.outlier_p8_n3000 = 1.0;
  const JavaClusterModel mw(with), mo(without);
  const double tw = mw.exec_time_mean(TaskKernel::MatMul, 3000, 8);
  const double to = mo.exec_time_mean(TaskKernel::MatMul, 3000, 8);
  EXPECT_GT(tw, to * 1.25);
  // Other points are untouched.
  EXPECT_DOUBLE_EQ(mw.exec_time_mean(TaskKernel::MatMul, 3000, 9),
                   mo.exec_time_mean(TaskKernel::MatMul, 3000, 9));
}

TEST(JavaCluster, ExecutionSlowerThanAnalyticalPrediction) {
  // The machine runs below the calibrated nominal speed (the gap the
  // paper's Figure 2 quantifies).
  JavaClusterModel m;
  for (int p : {1, 4, 16, 32}) {
    const double analytical =
        mtsched::dag::kernel_flops(TaskKernel::MatMul, 2000) / p / 250e6;
    EXPECT_GT(m.exec_time_mean(TaskKernel::MatMul, 2000, p), analytical);
  }
}

TEST(JavaCluster, OverAllocationEventuallyHurts) {
  // The sync term creates a real optimum below 32 for n = 2000 (the
  // regime of Table II's positive linear slope).
  JavaClusterModel m;
  double best_p = 1;
  double best = m.exec_time_mean(TaskKernel::MatMul, 2000, 1);
  for (int p = 2; p <= 32; ++p) {
    const double t = m.exec_time_mean(TaskKernel::MatMul, 2000, p);
    if (t < best) {
      best = t;
      best_p = p;
    }
  }
  EXPECT_LT(best_p, 30);
  EXPECT_GT(m.exec_time_mean(TaskKernel::MatMul, 2000, 32), best);
}

TEST(JavaCluster, StartupShapeMatchesFigure3) {
  JavaClusterModel m;
  // Roughly 0.7-0.9 s at p=1 and 1.2-1.8 s at p=32, never tiny.
  EXPECT_GT(m.startup_mean(1), 0.5);
  EXPECT_LT(m.startup_mean(1), 1.1);
  EXPECT_GT(m.startup_mean(32), 1.0);
  EXPECT_LT(m.startup_mean(32), 2.2);
  for (int p = 1; p <= 32; ++p) EXPECT_GT(m.startup_mean(p), 0.05);
}

TEST(JavaCluster, StartupIsNotMonotonic) {
  // The paper notes, with surprise, that average startup time is not
  // monotonically increasing in p.
  JavaClusterModel m;
  bool any_decrease = false;
  for (int p = 2; p <= 32; ++p) {
    if (m.startup_mean(p) < m.startup_mean(p - 1)) any_decrease = true;
  }
  EXPECT_TRUE(any_decrease);
}

TEST(JavaCluster, RedistOverheadDominatedByDestination) {
  JavaClusterModel m;
  // Effect of p_dst at fixed p_src is much larger than vice versa.
  const double d_span = m.redist_overhead_mean(16, 32) -
                        m.redist_overhead_mean(16, 1);
  const double s_span = m.redist_overhead_mean(32, 16) -
                        m.redist_overhead_mean(1, 16);
  EXPECT_GT(d_span, 4.0 * s_span);
  EXPECT_GT(d_span, 0.1);  // Figure 4's scale: hundreds of ms
}

TEST(JavaCluster, RedistOverheadLinearFitMatchesTable2Shape) {
  // A linear fit over p_dst yields a clearly positive slope and an
  // intercept around 0.1 s, like Table II's (7.88 ms, 108.58 ms).
  JavaClusterModel m;
  std::vector<double> x, y;
  for (int d = 1; d <= 32; ++d) {
    x.push_back(d);
    double sum = 0.0;
    for (int s = 1; s <= 32; ++s) sum += m.redist_overhead_mean(s, d);
    y.push_back(sum / 32.0);
  }
  const auto f = mtsched::stats::fit_linear(x, y);
  EXPECT_GT(f.a, 0.004);
  EXPECT_LT(f.a, 0.015);
  EXPECT_GT(f.b, 0.05);
  EXPECT_LT(f.b, 0.2);
}

TEST(JavaCluster, SamplesAverageToTheMean) {
  JavaClusterModel m;
  mtsched::core::Rng rng(5);
  const double mean = m.exec_time_mean(TaskKernel::MatMul, 2000, 4);
  double sum = 0.0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    sum += m.exec_time_sample(TaskKernel::MatMul, 2000, 4, rng);
  }
  EXPECT_NEAR(sum / trials, mean, mean * 0.01);
}

TEST(JavaCluster, SamplesVaryAcrossDraws) {
  JavaClusterModel m;
  mtsched::core::Rng rng(6);
  const double a = m.startup_sample(8, rng);
  const double b = m.startup_sample(8, rng);
  EXPECT_NE(a, b);
}

TEST(JavaCluster, RangeValidation) {
  JavaClusterModel m;
  EXPECT_THROW(m.exec_time_mean(TaskKernel::MatMul, 2000, 0),
               InvalidArgument);
  EXPECT_THROW(m.exec_time_mean(TaskKernel::MatMul, 2000, 33),
               InvalidArgument);
  EXPECT_THROW(m.startup_mean(0), InvalidArgument);
  EXPECT_THROW(m.redist_overhead_mean(0, 1), InvalidArgument);
  EXPECT_THROW(m.redist_overhead_mean(1, 40), InvalidArgument);
}

TEST(JavaCluster, ConfigValidation) {
  JavaClusterConfig cfg;
  cfg.num_nodes = 0;
  EXPECT_THROW(JavaClusterModel{cfg}, InvalidArgument);
  cfg = {};
  cfg.nominal_flops = -1.0;
  EXPECT_THROW(JavaClusterModel{cfg}, InvalidArgument);
  cfg = {};
  cfg.eff_floor = 0.9;
  cfg.eff_ceil = 0.5;
  EXPECT_THROW(JavaClusterModel{cfg}, InvalidArgument);
}

TEST(JavaCluster, PlatformSpecMatchesConfiguration) {
  JavaClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.nominal_flops = 123e6;
  const JavaClusterModel m(cfg);
  const auto spec = m.platform_spec();
  EXPECT_EQ(spec.num_nodes, 16);
  EXPECT_DOUBLE_EQ(spec.reference_flops(), 123e6);
}

TEST(JavaCluster, InternalCommOnlyForParallelMultiplication) {
  JavaClusterModel m;
  EXPECT_DOUBLE_EQ(m.internal_comm_time(TaskKernel::MatAdd, 2000, 8), 0.0);
  EXPECT_DOUBLE_EQ(m.internal_comm_time(TaskKernel::MatMul, 2000, 1), 0.0);
  EXPECT_GT(m.internal_comm_time(TaskKernel::MatMul, 2000, 8), 0.0);
}

TEST(ProcessGrid, MostSquareFactorization) {
  EXPECT_EQ(process_grid(1), std::make_pair(1, 1));
  EXPECT_EQ(process_grid(12), std::make_pair(3, 4));
  EXPECT_EQ(process_grid(16), std::make_pair(4, 4));
  EXPECT_EQ(process_grid(17), std::make_pair(1, 17));
  EXPECT_EQ(process_grid(30), std::make_pair(5, 6));
}

TEST(Pdgemm, EfficiencyIsTight) {
  // Figure 2 (right): the optimized kernel errs ~10 %, up to ~20 %.
  PdgemmMachineModel m;
  for (int n : {1024, 2048, 4096}) {
    for (int p = 1; p <= 32; ++p) {
      const double e = m.efficiency(n, p);
      EXPECT_GE(e, 0.70);
      EXPECT_LE(e, 1.0);
    }
  }
}

TEST(Pdgemm, OnlyMultiplicationSupported) {
  PdgemmMachineModel m;
  EXPECT_THROW(m.exec_time_mean(TaskKernel::MatAdd, 1024, 4),
               InvalidArgument);
  EXPECT_GT(m.exec_time_mean(TaskKernel::MatMul, 1024, 4), 0.0);
}

TEST(Pdgemm, OverheadsAreSmall) {
  PdgemmMachineModel m;
  EXPECT_LT(m.startup_mean(32), 0.2);
  EXPECT_LT(m.redist_overhead_mean(32, 32), 0.02);
}

/// Sweep: execution means are positive and finite over the full domain of
/// both machines.
class ExecDomain
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExecDomain, JavaPositiveFinite) {
  const auto [n, p] = GetParam();
  JavaClusterModel m;
  for (TaskKernel k : {TaskKernel::MatMul, TaskKernel::MatAdd}) {
    const double t = m.exec_time_mean(k, n, p);
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecDomain,
    ::testing::Combine(::testing::Values(1000, 2000, 3000),
                       ::testing::Values(1, 2, 7, 8, 15, 16, 17, 31, 32)));

}  // namespace
