// Data redistribution planning (paper Section IV-2).
//
// When task u consumes the matrix produced by task t, and t and u ran on
// different processor sets (or the same set with different sizes), the
// matrix must be redistributed from t's 1-D layout to u's 1-D layout. The
// messages are fully determined by the overlaps of the two layouts' column
// intervals. Each source rank's interval meets a contiguous run of
// destination intervals, so a plan has at most p_src + p_dst - 1 messages;
// this module lists them sparsely, in O(p_src + p_dst). TGrid performs
// exactly these point-to-point transfers; the simulator feeds the same list
// into the parallel-task network model.
#pragma once

#include <vector>

#include "mtsched/redist/layout.hpp"

namespace mtsched::redist {

/// One point-to-point transfer: source rank `src` sends `bytes` (> 0) to
/// destination rank `dst`.
struct Message {
  int src;
  int dst;
  double bytes;

  bool operator==(const Message&) const = default;
};

/// The messages of a redistribution from p_src to p_dst ranks, in
/// ascending (src, dst) order — the row-major order of the p_src x p_dst
/// byte matrix, without its zero entries. In a block redistribution both
/// src and dst are non-decreasing along the list.
struct RedistPlan {
  int p_src = 0;
  int p_dst = 0;
  std::vector<Message> messages;

  /// Total payload (equals the full matrix size when layouts cover it).
  double total_bytes() const;
};

/// Computes the redistribution plan for an n-by-n matrix moving from a
/// 1-D column-block layout over p_src processors to one over p_dst
/// processors, by one walk over both layouts' column intervals. The plan
/// is purely logical: messages between ranks that share a physical node
/// are left to the consumer (the cluster model treats them as local
/// copies).
RedistPlan plan_block_redistribution(int n, int p_src, int p_dst);

}  // namespace mtsched::redist
