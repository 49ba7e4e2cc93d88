// Least-squares regression models used to derive the paper's empirical
// simulation models (Section VII, Table II):
//
//   hyperbolic  y = a * (1/x) + b    — execution time vs. processor count
//                                      for p <= 16 (speedup regime)
//   linear      y = a * x + b        — overhead-dominated regime (p > 16),
//                                      startup overhead, redistribution
//                                      protocol overhead
//
// Both are linear in their coefficients and are fitted in closed form.
#pragma once

#include <string>
#include <vector>

namespace mtsched::stats {

/// Fitted two-coefficient model y = a * basis(x) + b.
struct Fit {
  double a = 0.0;
  double b = 0.0;
  double r_squared = 0.0;  ///< coefficient of determination on the fit data
  double rmse = 0.0;       ///< root-mean-square residual on the fit data
};

/// Fits y = a*x + b by ordinary least squares. Requires >= 2 points and at
/// least two distinct x values.
Fit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

/// Fits y = a/x + b by least squares on the transformed basis 1/x.
/// Requires >= 2 points, all x nonzero, at least two distinct x values.
Fit fit_hyperbolic(const std::vector<double>& x, const std::vector<double>& y);

/// Evaluates the linear model.
double eval_linear(const Fit& f, double x);

/// Evaluates the hyperbolic model.
double eval_hyperbolic(const Fit& f, double x);

/// Theil–Sen estimator for y = a*x + b: the slope is the median of all
/// pairwise slopes, the intercept the median residual. Breakdown point
/// ~29 %, so a minority of outliers (the paper's p = 8/16 points) cannot
/// ruin the fit — this addresses the outlier challenge the paper's
/// conclusion poses for sparse-profile calibration. r_squared/rmse are
/// reported against the fitted line like the least-squares variants.
Fit theil_sen_linear(const std::vector<double>& x,
                     const std::vector<double>& y);

/// Theil–Sen on the transformed basis 1/x: y = a/x + b, outlier-robust.
Fit theil_sen_hyperbolic(const std::vector<double>& x,
                         const std::vector<double>& y);

/// The paper's piecewise execution-time model: hyperbolic for p <= split,
/// linear for p > split (Table II uses split = 16).
struct PiecewiseFit {
  Fit small_p;       ///< y = a/p + b, valid for p <= split
  Fit large_p;       ///< y = c*p + d, valid for p >  split
  int split = 16;
  bool has_large = false;  ///< false when no points beyond split were given

  double eval(double p) const;
  std::string describe() const;
};

}  // namespace mtsched::stats
