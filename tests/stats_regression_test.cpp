// Unit and property tests for the regression toolkit behind the paper's
// empirical models (Table II).
#include <gtest/gtest.h>

#include <cmath>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/stats/regression.hpp"

namespace {

using namespace mtsched::stats;
using mtsched::core::InvalidArgument;

TEST(FitLinear, ExactRecovery) {
  // y = 3x - 2, exactly.
  const auto f = fit_linear({1, 2, 3, 4, 5}, {1, 4, 7, 10, 13});
  EXPECT_NEAR(f.a, 3.0, 1e-12);
  EXPECT_NEAR(f.b, -2.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(f.rmse, 0.0, 1e-9);
}

TEST(FitLinear, LeastSquaresOnNoisyData) {
  mtsched::core::Rng rng(99);
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(2.5 * i + 7.0 + rng.normal(0.0, 0.5));
  }
  const auto f = fit_linear(x, y);
  EXPECT_NEAR(f.a, 2.5, 0.05);
  EXPECT_NEAR(f.b, 7.0, 1.5);
  EXPECT_GT(f.r_squared, 0.99);
}

TEST(FitLinear, RequiresTwoDistinctX) {
  EXPECT_THROW(fit_linear({2, 2, 2}, {1, 2, 3}), InvalidArgument);
  EXPECT_THROW(fit_linear({1}, {1}), InvalidArgument);
  EXPECT_THROW(fit_linear({1, 2}, {1}), InvalidArgument);
}

TEST(FitHyperbolic, ExactRecovery) {
  // y = 120/x + 3.
  std::vector<double> x{1, 2, 4, 8, 16}, y;
  for (double v : x) y.push_back(120.0 / v + 3.0);
  const auto f = fit_hyperbolic(x, y);
  EXPECT_NEAR(f.a, 120.0, 1e-9);
  EXPECT_NEAR(f.b, 3.0, 1e-9);
  EXPECT_NEAR(eval_hyperbolic(f, 10.0), 15.0, 1e-9);
}

TEST(FitHyperbolic, RejectsZeroX) {
  EXPECT_THROW(fit_hyperbolic({0, 1}, {1, 2}), InvalidArgument);
}

TEST(EvalHyperbolic, UndefinedAtZero) {
  Fit f{1.0, 1.0, 1.0, 0.0};
  EXPECT_THROW(eval_hyperbolic(f, 0.0), InvalidArgument);
}

/// The piecewise model as the regression builder assembles it: each
/// branch fitted over its own point set.
PiecewiseFit piecewise(const std::vector<double>& ps,
                       const std::vector<double>& ys,
                       const std::vector<double>& pl = {},
                       const std::vector<double>& yl = {}) {
  PiecewiseFit pw;
  pw.small_p = fit_hyperbolic(ps, ys);
  if (!pl.empty()) {
    pw.large_p = fit_linear(pl, yl);
    pw.has_large = true;
  }
  return pw;
}

TEST(FitPiecewise, RoutesPointsBySplit) {
  // Hyperbolic below 16, linear above.
  std::vector<double> ps, ys, pl, yl;
  for (double v : {2.0, 4.0, 8.0, 15.0}) {
    ps.push_back(v);
    ys.push_back(240.0 / v + 2.0);
  }
  for (double v : {20.0, 26.0, 32.0}) {
    pl.push_back(v);
    yl.push_back(0.1 * v + 5.0);
  }
  const auto pw = piecewise(ps, ys, pl, yl);
  ASSERT_EQ(pw.split, 16);
  EXPECT_NEAR(pw.small_p.a, 240.0, 1e-9);
  EXPECT_NEAR(pw.small_p.b, 2.0, 1e-9);
  EXPECT_NEAR(pw.large_p.a, 0.1, 1e-9);
  EXPECT_NEAR(pw.large_p.b, 5.0, 1e-9);
  EXPECT_NEAR(pw.eval(4.0), 62.0, 1e-9);
  EXPECT_NEAR(pw.eval(16.0), 17.0, 1e-9);
  EXPECT_NEAR(pw.eval(30.0), 8.0, 1e-9);
}

TEST(FitPiecewise, HyperbolicOnlyWhenNoLargePoints) {
  const auto pw = piecewise({2, 4, 8}, {50, 25, 12.5});
  EXPECT_FALSE(pw.has_large);
  // The hyperbolic branch extends beyond the split when no linear branch
  // exists.
  EXPECT_GT(pw.eval(32.0), 0.0);
}

TEST(FitPiecewise, EvalRejectsBelowOne) {
  const auto pw = piecewise({2, 4, 8}, {50, 25, 12.5});
  EXPECT_THROW(pw.eval(0.5), InvalidArgument);
}

TEST(FitPiecewise, DescribeMentionsBothBranches) {
  const auto pw = piecewise({2, 4}, {10, 5}, {20, 30}, {3, 4});
  const auto s = pw.describe();
  EXPECT_NE(s.find("/p"), std::string::npos);
  EXPECT_NE(s.find("*p"), std::string::npos);
}

TEST(Fit, RSquaredDropsWithNoise) {
  mtsched::core::Rng rng(7);
  std::vector<double> x, clean_y, noisy_y;
  for (int i = 1; i <= 30; ++i) {
    x.push_back(i);
    clean_y.push_back(2.0 * i + 1.0);
    noisy_y.push_back(2.0 * i + 1.0 + rng.normal(0.0, 8.0));
  }
  EXPECT_GT(fit_linear(x, clean_y).r_squared,
            fit_linear(x, noisy_y).r_squared);
}

/// Property sweep: hyperbolic fits recover arbitrary (a, b) pairs exactly
/// from noise-free samples.
class HyperbolicRecovery
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(HyperbolicRecovery, Exact) {
  const auto [a, b] = GetParam();
  std::vector<double> x{1, 3, 5, 9, 17, 31}, y;
  for (double v : x) y.push_back(a / v + b);
  const auto f = fit_hyperbolic(x, y);
  EXPECT_NEAR(f.a, a, 1e-6 * std::max(1.0, std::abs(a)));
  EXPECT_NEAR(f.b, b, 1e-6 * std::max(1.0, std::abs(b)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HyperbolicRecovery,
    ::testing::Values(std::make_pair(239.44, 3.43),
                      std::make_pair(537.91, -25.55),
                      std::make_pair(22.99, 0.03),
                      std::make_pair(73.59, 0.38), std::make_pair(1.0, 0.0),
                      std::make_pair(-5.0, 100.0)));

TEST(TheilSen, MatchesLeastSquaresOnCleanData) {
  std::vector<double> x{1, 2, 3, 4, 5}, y{1, 4, 7, 10, 13};  // y = 3x - 2
  const auto f = theil_sen_linear(x, y);
  EXPECT_NEAR(f.a, 3.0, 1e-12);
  EXPECT_NEAR(f.b, -2.0, 1e-12);
}

TEST(TheilSen, ShrugsOffOutliers) {
  // y = 2x + 1 with one wild outlier: least squares bends, Theil-Sen
  // recovers the true line exactly.
  std::vector<double> x{1, 2, 3, 4, 5, 6, 7}, y;
  for (double v : x) y.push_back(2.0 * v + 1.0);
  y[3] = 100.0;  // outlier at x = 4
  const auto robust = theil_sen_linear(x, y);
  const auto ls = fit_linear(x, y);
  EXPECT_NEAR(robust.a, 2.0, 1e-9);
  EXPECT_NEAR(robust.b, 1.0, 1e-9);
  EXPECT_GT(std::abs(ls.b - 1.0), 1.0);  // least squares got dragged
}

TEST(TheilSen, HyperbolicRobustRecovery) {
  // y = 120/x + 3 with an outlier at x = 8 (the paper's scenario).
  std::vector<double> x{1, 2, 4, 8, 16, 32}, y;
  for (double v : x) y.push_back(120.0 / v + 3.0);
  y[3] *= 1.5;  // +50 % at x = 8
  const auto f = theil_sen_hyperbolic(x, y);
  EXPECT_NEAR(f.a, 120.0, 6.0);
  EXPECT_NEAR(f.b, 3.0, 1.0);
}

TEST(TheilSen, Validation) {
  EXPECT_THROW(theil_sen_linear({1}, {1}), mtsched::core::InvalidArgument);
  EXPECT_THROW(theil_sen_linear({2, 2}, {1, 2}),
               mtsched::core::InvalidArgument);
  EXPECT_THROW(theil_sen_hyperbolic({0, 1}, {1, 2}),
               mtsched::core::InvalidArgument);
}

}  // namespace
