#include "mtsched/sched/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mtsched/core/error.hpp"

namespace mtsched::sched {

namespace {

constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();

std::uint64_t shape_key(const dag::Task& t) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.kernel))
          << 32) |
         static_cast<std::uint32_t>(t.matrix_dim);
}

/// Entry i of a lazily sized array of unfilled entries. Arrays grow only
/// at the end, so a resize keeps every filled entry in place.
double& slot(std::vector<double>& v, std::size_t i, std::size_t size) {
  if (v.size() < size) v.resize(size, kUnfilled);
  return v[i];
}

}  // namespace

CostCurveTable::CostCurveTable(const SchedCost& base, int P)
    : base_(base), procs_(static_cast<std::size_t>(std::max(P, 0))) {
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
}

CostCurveTable::CostCurveTable(const SchedCost& base, int P,
                               const dag::Dag& g)
    : CostCurveTable(base, P) {
  dag_ = &g;
  shape_of_task_.resize(g.num_tasks());
  for (const auto& t : g.tasks()) {
    shape_of_task_[t.id] = intern(t);
    task_row_of(shape_of_task_[t.id], t);
  }
}

std::uint32_t CostCurveTable::intern(const dag::Task& t) const {
  const auto [it, fresh] = shape_of_.try_emplace(
      shape_key(t), static_cast<std::uint32_t>(shape_of_.size()));
  if (fresh) task_rows_.resize(task_rows_.size() + procs_, kUnfilled);
  return it->second;
}

const double* CostCurveTable::task_row_of(std::uint32_t shape,
                                          const dag::Task& t) const {
  double* row = task_rows_.data() + shape * procs_;
  if (std::isnan(row[0])) {
    base_.task_time_curve(t, {row, procs_});
    ++fills_;
  }
  return row;
}

double& CostCurveTable::redist_cell(std::uint32_t shape, int p_src,
                                    int p_dst) const {
  check_p(p_src);
  check_p(p_dst);
  return slot(redist_,
              (shape * procs_ + static_cast<std::size_t>(p_src - 1)) *
                      procs_ +
                  static_cast<std::size_t>(p_dst - 1),
              shape_of_.size() * procs_ * procs_);
}

double CostCurveTable::redist_of(std::uint32_t shape,
                                 const dag::Task& producer, int p_src,
                                 int p_dst) const {
  double& cell = redist_cell(shape, p_src, p_dst);
  if (std::isnan(cell)) cell = base_.redist_time(producer, p_src, p_dst);
  return cell;
}

std::span<const double> CostCurveTable::redist_prefix(
    std::uint32_t shape, const dag::Task& producer, int p_src,
    std::size_t len) const {
  MTSCHED_REQUIRE(len <= procs_,
                  "redist_time_curve query exceeds the table's P");
  double* row = &redist_cell(shape, p_src, 1);
  if (std::any_of(row, row + len, [](double v) { return std::isnan(v); })) {
    base_.redist_time_curve(producer, p_src, {row, len});
    ++fills_;
  }
  return {row, len};
}

double CostCurveTable::exec_time(const dag::Task& t, int p) const {
  // Scalar exec estimates are not tabled: every consumer reads task rows,
  // and exec_time alone (without the startup share) has no batched base
  // call to fill a row from.
  check_p(p);
  return base_.exec_time(t, p);
}

double CostCurveTable::startup_time(int p) const {
  check_p(p);
  double& v = slot(startup_, static_cast<std::size_t>(p - 1), procs_);
  if (std::isnan(v)) v = base_.startup_time(p);
  return v;
}

double CostCurveTable::redist_time(const dag::Task& producer, int p_src,
                                   int p_dst) const {
  return redist_of(intern(producer), producer, p_src, p_dst);
}

double CostCurveTable::redist_overhead_time(int p_src, int p_dst) const {
  check_p(p_src);
  check_p(p_dst);
  double& v = slot(overhead_,
                   static_cast<std::size_t>(p_src - 1) * procs_ +
                       static_cast<std::size_t>(p_dst - 1),
                   procs_ * procs_);
  if (std::isnan(v)) v = base_.redist_overhead_time(p_src, p_dst);
  return v;
}

void CostCurveTable::task_time_curve(const dag::Task& t,
                                     std::span<double> out) const {
  MTSCHED_REQUIRE(out.size() <= procs_,
                  "task_time_curve query exceeds the table's P");
  const double* row = task_row_of(intern(t), t);
  std::copy(row, row + out.size(), out.begin());
}

void CostCurveTable::redist_time_curve(const dag::Task& producer, int p_src,
                                       std::span<double> out) const {
  const auto row = redist_prefix(intern(producer), producer, p_src,
                                 out.size());
  std::copy(row.begin(), row.end(), out.begin());
}

double CostCurveTable::redist(dag::TaskId q, int p_src, int p_dst) const {
  return redist_of(shape_of_task_[q], dag_->task(q), p_src, p_dst);
}

std::span<const double> CostCurveTable::redist_curve(dag::TaskId q,
                                                     int p_src,
                                                     std::size_t len) const {
  return redist_prefix(shape_of_task_[q], dag_->task(q), p_src, len);
}

}  // namespace mtsched::sched
