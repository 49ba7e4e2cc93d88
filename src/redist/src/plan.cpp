#include "mtsched/redist/plan.hpp"

#include <algorithm>
#include <cstddef>

#include "mtsched/core/units.hpp"

namespace mtsched::redist {

double RedistPlan::total_bytes() const {
  double s = 0.0;
  for (const Message& m : messages) s += m.bytes;
  return s;
}

RedistPlan plan_block_redistribution(int n, int p_src, int p_dst) {
  const BlockLayout1D src(n, p_src);
  const BlockLayout1D dst(n, p_dst);
  RedistPlan plan{p_src, p_dst, {}};
  plan.messages.reserve(static_cast<std::size_t>(p_src) +
                        static_cast<std::size_t>(p_dst) - 1);
  const double col_bytes = static_cast<double>(n) * core::kElemBytes;
  // Both layouts tile [0, n) with non-empty intervals, so the current pair
  // always overlaps; advance whichever interval ends first (both when they
  // end together).
  int i = 0, j = 0;
  auto a = src.columns_of(0);
  auto b = dst.columns_of(0);
  while (i < p_src && j < p_dst) {
    const int cols = interval_overlap(a, b);
    plan.messages.push_back(
        Message{i, j, static_cast<double>(cols) * col_bytes});
    const int end = std::min(a.second, b.second);
    if (a.second == end && ++i < p_src) a = src.columns_of(i);
    if (b.second == end && ++j < p_dst) b = dst.columns_of(j);
  }
  return plan;
}

}  // namespace mtsched::redist
