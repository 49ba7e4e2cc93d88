#include "mtsched/sched/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "mtsched/core/error.hpp"

namespace mtsched::sched {

namespace {

constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();

std::uint64_t shape_key(const dag::Task& t) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.kernel))
          << 32) |
         static_cast<std::uint32_t>(t.matrix_dim);
}

}  // namespace

CostCurveTable::CostCurveTable(const SchedCost& base, int P,
                               const dag::Dag& g)
    : base_(base),
      procs_(static_cast<std::size_t>(std::max(P, 0))),
      dag_(g) {
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  // (kernel, dim) packed to a 64-bit key -> dense shape index.
  std::unordered_map<std::uint64_t, std::uint32_t> shape_of;
  shape_of_task_.resize(g.num_tasks());
  for (const auto& t : g.tasks()) {
    const auto [it, fresh] = shape_of.try_emplace(
        shape_key(t), static_cast<std::uint32_t>(shape_of.size()));
    shape_of_task_[t.id] = it->second;
    if (fresh) {
      task_rows_.resize(task_rows_.size() + procs_);
      base_.task_time_curve(
          t, {task_rows_.data() + it->second * procs_, procs_});
    }
  }
}

double* CostCurveTable::redist_row(dag::TaskId q, int p_src) const {
  check_p(p_src);
  // One procs_ x procs_ block per shape, and task_rows_ has one row each.
  if (redist_.empty()) redist_.assign(task_rows_.size() * procs_, kUnfilled);
  return redist_.data() +
         (shape_of_task_[q] * procs_ + static_cast<std::size_t>(p_src - 1)) *
             procs_;
}

double CostCurveTable::redist(dag::TaskId q, int p_src, int p_dst) const {
  check_p(p_dst);
  double& cell = redist_row(q, p_src)[p_dst - 1];
  if (std::isnan(cell)) cell = base_.redist_time(dag_.task(q), p_src, p_dst);
  return cell;
}

std::span<const double> CostCurveTable::redist_curve(dag::TaskId q,
                                                     int p_src,
                                                     std::size_t len) const {
  MTSCHED_REQUIRE(len <= procs_,
                  "redist_time_curve query exceeds the table's P");
  double* row = redist_row(q, p_src);
  if (std::any_of(row, row + len, [](double v) { return std::isnan(v); })) {
    base_.redist_time_curve(dag_.task(q), p_src, {row, len});
  }
  return {row, len};
}

double CostCurveTable::redist_overhead_time(int p_src, int p_dst) const {
  check_p(p_src);
  check_p(p_dst);
  if (overhead_.empty()) overhead_.assign(procs_ * procs_, kUnfilled);
  double& v = overhead_[static_cast<std::size_t>(p_src - 1) * procs_ +
                        static_cast<std::size_t>(p_dst - 1)];
  if (std::isnan(v)) v = base_.redist_overhead_time(p_src, p_dst);
  return v;
}

}  // namespace mtsched::sched
