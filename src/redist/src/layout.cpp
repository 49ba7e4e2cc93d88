#include "mtsched/redist/layout.hpp"

#include <algorithm>

#include "mtsched/core/error.hpp"

namespace mtsched::redist {

BlockLayout1D::BlockLayout1D(int n, int p) : p_(p) {
  MTSCHED_REQUIRE(n >= 1, "matrix dimension must be >= 1");
  MTSCHED_REQUIRE(p >= 1, "processor count must be >= 1");
  MTSCHED_REQUIRE(p <= n, "cannot give every processor at least one column");
  base_ = n / p;
  extra_ = n % p;
}

std::pair<int, int> BlockLayout1D::columns_of(int rank) const {
  MTSCHED_REQUIRE(rank >= 0 && rank < p_, "rank out of range");
  int begin;
  if (rank < extra_) {
    begin = rank * (base_ + 1);
  } else {
    begin = extra_ * (base_ + 1) + (rank - extra_) * base_;
  }
  const int len = rank < extra_ ? base_ + 1 : base_;
  return {begin, begin + len};
}

int interval_overlap(std::pair<int, int> a, std::pair<int, int> b) {
  return std::max(0, std::min(a.second, b.second) - std::max(a.first, b.first));
}

}  // namespace mtsched::redist
