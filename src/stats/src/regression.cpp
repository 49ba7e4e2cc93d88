#include "mtsched/stats/regression.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "mtsched/core/error.hpp"

namespace mtsched::stats {

namespace {

/// Least squares of y = a*basis + b for an already-transformed basis vector.
Fit fit_basis(const std::vector<double>& basis, const std::vector<double>& y) {
  MTSCHED_REQUIRE(basis.size() == y.size(), "x/y size mismatch");
  MTSCHED_REQUIRE(basis.size() >= 2, "regression requires >= 2 points");
  const auto n = static_cast<double>(basis.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    sx += basis[i];
    sy += y[i];
    sxx += basis[i] * basis[i];
    sxy += basis[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  MTSCHED_REQUIRE(std::abs(denom) > 1e-12 * (1.0 + n * sxx),
                  "regression requires at least two distinct x values");
  Fit f;
  f.a = (n * sxy - sx * sy) / denom;
  f.b = (sy - f.a * sx) / n;
  const double ybar = sy / n;
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    const double pred = f.a * basis[i] + f.b;
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - ybar) * (y[i] - ybar);
  }
  f.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  f.rmse = std::sqrt(ss_res / n);
  return f;
}

}  // namespace

namespace {

/// Theil–Sen on an already-transformed basis.
Fit theil_sen_basis(const std::vector<double>& basis,
                    const std::vector<double>& y) {
  MTSCHED_REQUIRE(basis.size() == y.size(), "x/y size mismatch");
  MTSCHED_REQUIRE(basis.size() >= 2, "regression requires >= 2 points");
  std::vector<double> slopes;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = i + 1; j < basis.size(); ++j) {
      const double dx = basis[j] - basis[i];
      if (dx != 0.0) slopes.push_back((y[j] - y[i]) / dx);
    }
  }
  MTSCHED_REQUIRE(!slopes.empty(),
                  "regression requires at least two distinct x values");
  std::sort(slopes.begin(), slopes.end());
  const auto mid = slopes.size() / 2;
  Fit f;
  f.a = slopes.size() % 2 == 1
            ? slopes[mid]
            : 0.5 * (slopes[mid - 1] + slopes[mid]);
  std::vector<double> residuals;
  residuals.reserve(basis.size());
  for (std::size_t i = 0; i < basis.size(); ++i) {
    residuals.push_back(y[i] - f.a * basis[i]);
  }
  std::sort(residuals.begin(), residuals.end());
  const auto rmid = residuals.size() / 2;
  f.b = residuals.size() % 2 == 1
            ? residuals[rmid]
            : 0.5 * (residuals[rmid - 1] + residuals[rmid]);
  // Goodness-of-fit diagnostics against the robust line.
  double ybar = 0.0;
  for (double v : y) ybar += v;
  ybar /= static_cast<double>(y.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    const double pred = f.a * basis[i] + f.b;
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - ybar) * (y[i] - ybar);
  }
  f.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  f.rmse = std::sqrt(ss_res / static_cast<double>(basis.size()));
  return f;
}

}  // namespace

Fit fit_linear(const std::vector<double>& x, const std::vector<double>& y) {
  return fit_basis(x, y);
}

Fit theil_sen_linear(const std::vector<double>& x,
                     const std::vector<double>& y) {
  return theil_sen_basis(x, y);
}

Fit theil_sen_hyperbolic(const std::vector<double>& x,
                         const std::vector<double>& y) {
  std::vector<double> basis;
  basis.reserve(x.size());
  for (double v : x) {
    MTSCHED_REQUIRE(v != 0.0, "hyperbolic fit requires nonzero x");
    basis.push_back(1.0 / v);
  }
  return theil_sen_basis(basis, y);
}

Fit fit_hyperbolic(const std::vector<double>& x, const std::vector<double>& y) {
  std::vector<double> basis;
  basis.reserve(x.size());
  for (double v : x) {
    MTSCHED_REQUIRE(v != 0.0, "hyperbolic fit requires nonzero x");
    basis.push_back(1.0 / v);
  }
  return fit_basis(basis, y);
}

double eval_linear(const Fit& f, double x) { return f.a * x + f.b; }

double eval_hyperbolic(const Fit& f, double x) {
  MTSCHED_REQUIRE(x != 0.0, "hyperbolic model undefined at x = 0");
  return f.a / x + f.b;
}

double PiecewiseFit::eval(double p) const {
  MTSCHED_REQUIRE(p >= 1.0, "processor count must be >= 1");
  if (p <= static_cast<double>(split) || !has_large)
    return eval_hyperbolic(small_p, p);
  return eval_linear(large_p, p);
}

std::string PiecewiseFit::describe() const {
  std::ostringstream os;
  os << "y = " << small_p.a << "/p + " << small_p.b << "  (p <= " << split
     << ")";
  if (has_large) {
    os << ";  y = " << large_p.a << "*p + " << large_p.b << "  (p > " << split
       << ")";
  }
  return os.str();
}

}  // namespace mtsched::stats
