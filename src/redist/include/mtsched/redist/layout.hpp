// 1-D column-block data layouts (paper Sections II-B and IV-2).
//
// An n-by-n matrix distributed over p processors: processor r owns a
// contiguous block of columns. The first (n mod p) processors own
// ceil(n/p) columns, the rest floor(n/p) — the standard balanced block
// distribution. Each column holds n double-precision elements.
#pragma once

#include <utility>

namespace mtsched::redist {

/// Column-block layout of an n-by-n matrix over p processors.
class BlockLayout1D {
 public:
  /// Throws core::InvalidArgument unless n >= 1 and 1 <= p <= n.
  BlockLayout1D(int n, int p);

  /// Half-open column interval [begin, end) owned by processor `rank`.
  std::pair<int, int> columns_of(int rank) const;

 private:
  int p_;
  int base_;   ///< floor(n/p)
  int extra_;  ///< n mod p: first `extra_` ranks own base_+1 columns
};

/// Length of the overlap of two half-open integer intervals.
int interval_overlap(std::pair<int, int> a, std::pair<int, int> b);

}  // namespace mtsched::redist
