// Tests for 1-D block layouts and redistribution planning, including the
// conservation property the paper's Section IV-2 relies on.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/units.hpp"
#include "mtsched/redist/plan.hpp"

namespace {

using namespace mtsched::redist;
using mtsched::core::InvalidArgument;

int num_columns(const BlockLayout1D& l, int rank) {
  const auto [b, e] = l.columns_of(rank);
  return e - b;
}

/// Bytes `rank` owns: its columns of n rows of 8-byte doubles.
double bytes_of(const BlockLayout1D& l, int n, int rank) {
  return num_columns(l, rank) * static_cast<double>(n) * 8.0;
}

/// Bytes each source rank sends and each destination rank receives,
/// summed in list order.
struct Totals {
  std::vector<double> sent, received;
};

Totals totals(const RedistPlan& plan) {
  Totals t{std::vector<double>(plan.p_src), std::vector<double>(plan.p_dst)};
  for (const Message& m : plan.messages) {
    t.sent[m.src] += m.bytes;
    t.received[m.dst] += m.bytes;
  }
  return t;
}

int num_messages(const RedistPlan& plan) {
  return static_cast<int>(plan.messages.size());
}

TEST(BlockLayout, EvenDivision) {
  BlockLayout1D l(100, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(num_columns(l, r), 25);
  EXPECT_EQ(l.columns_of(0), std::make_pair(0, 25));
  EXPECT_EQ(l.columns_of(3), std::make_pair(75, 100));
}

TEST(BlockLayout, RemainderGoesToFirstRanks) {
  BlockLayout1D l(10, 3);  // 4, 3, 3
  EXPECT_EQ(num_columns(l, 0), 4);
  EXPECT_EQ(num_columns(l, 1), 3);
  EXPECT_EQ(num_columns(l, 2), 3);
  EXPECT_EQ(l.columns_of(1), std::make_pair(4, 7));
}

TEST(BlockLayout, OwnerIsConsistentWithColumns) {
  // Every column has exactly one owner: the intervals tile [0, n) in
  // rank order.
  BlockLayout1D l(2000, 7);
  int next = 0;
  for (int r = 0; r < 7; ++r) {
    const auto [b, e] = l.columns_of(r);
    EXPECT_EQ(b, next);
    EXPECT_GT(e, b);
    next = e;
  }
  EXPECT_EQ(next, 2000);
}

TEST(BlockLayout, BytesOfUsesElementSize) {
  // Rank 0 of a 100-column layout over 4 ranks sends all its 25 columns
  // of 100 doubles to the single destination.
  const auto plan = plan_block_redistribution(100, 4, 1);
  EXPECT_DOUBLE_EQ(plan.messages[0].bytes, 25.0 * 100.0 * 8.0);
}

TEST(BlockLayout, Validation) {
  EXPECT_THROW(BlockLayout1D(0, 1), InvalidArgument);
  EXPECT_THROW(BlockLayout1D(10, 0), InvalidArgument);
  EXPECT_THROW(BlockLayout1D(4, 8), InvalidArgument);  // p > n
  BlockLayout1D ok(10, 10);
  EXPECT_EQ(num_columns(ok, 9), 1);
  EXPECT_THROW(ok.columns_of(10), InvalidArgument);
}

TEST(IntervalOverlap, Cases) {
  EXPECT_EQ(interval_overlap({0, 10}, {5, 15}), 5);
  EXPECT_EQ(interval_overlap({0, 10}, {10, 20}), 0);
  EXPECT_EQ(interval_overlap({0, 10}, {2, 4}), 2);
  EXPECT_EQ(interval_overlap({5, 6}, {0, 100}), 1);
  EXPECT_EQ(interval_overlap({0, 1}, {2, 3}), 0);
}

TEST(Plan, IdentityRedistributionIsDiagonal) {
  const auto plan = plan_block_redistribution(100, 4, 4);
  ASSERT_EQ(num_messages(plan), 4);
  for (int i = 0; i < 4; ++i) {
    const Message& m = plan.messages[static_cast<std::size_t>(i)];
    EXPECT_EQ(m.src, i);
    EXPECT_EQ(m.dst, i);
    EXPECT_EQ(m.bytes, 25.0 * 100.0 * 8.0);
  }
}

TEST(Plan, OneToMany) {
  const auto plan = plan_block_redistribution(100, 1, 4);
  EXPECT_EQ(plan.p_src, 1);
  EXPECT_EQ(plan.p_dst, 4);
  EXPECT_EQ(num_messages(plan), 4);
  EXPECT_DOUBLE_EQ(plan.total_bytes(), 100.0 * 100.0 * 8.0);
}

TEST(Plan, ManyToOne) {
  const auto plan = plan_block_redistribution(100, 4, 1);
  EXPECT_EQ(num_messages(plan), 4);
  EXPECT_DOUBLE_EQ(plan.total_bytes(), 100.0 * 100.0 * 8.0);
}

TEST(Plan, RowAndColumnTotalsMatchLayouts) {
  const int n = 2000, ps = 5, pd = 8;
  const auto plan = plan_block_redistribution(n, ps, pd);
  const BlockLayout1D src(n, ps), dst(n, pd);
  const Totals t = totals(plan);
  for (int i = 0; i < ps; ++i) {
    EXPECT_DOUBLE_EQ(t.sent[i], bytes_of(src, n, i));
  }
  for (int j = 0; j < pd; ++j) {
    EXPECT_DOUBLE_EQ(t.received[j], bytes_of(dst, n, j));
  }
}

TEST(Plan, UnevenLayoutsListEveryOverlapInOrder) {
  // 12 columns: sources own 4|4|4, destinations 3|3|3|3.
  const auto plan = plan_block_redistribution(12, 3, 4);
  const double col = 12.0 * 8.0;
  EXPECT_EQ(plan.messages, (std::vector<Message>{{0, 0, 3 * col},
                                                 {0, 1, 1 * col},
                                                 {1, 1, 2 * col},
                                                 {1, 2, 2 * col},
                                                 {2, 2, 1 * col},
                                                 {2, 3, 3 * col}}));
}

/// Property sweep over (n, p_src, p_dst): every plan conserves the matrix
/// (total bytes equals the full n-by-n payload) and each message count is
/// bounded by p_src + p_dst - 1 (contiguous interval overlap structure).
class PlanConservation
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlanConservation, ConservesAndBoundsMessages) {
  const auto [n, ps, pd] = GetParam();
  const auto plan = plan_block_redistribution(n, ps, pd);
  EXPECT_NEAR(plan.total_bytes(), static_cast<double>(n) * n * 8.0, 1e-6);
  EXPECT_LE(num_messages(plan), ps + pd - 1);
  EXPECT_GE(num_messages(plan), std::max(ps, pd));
}

/// The dense O(p_src * p_dst) reference: every pair's column overlap, its
/// nonzeros in row-major order.
std::vector<Message> dense_reference(int n, int ps, int pd) {
  const BlockLayout1D src(n, ps), dst(n, pd);
  const double col_bytes = static_cast<double>(n) * mtsched::core::kElemBytes;
  std::vector<Message> out;
  for (int i = 0; i < ps; ++i) {
    for (int j = 0; j < pd; ++j) {
      const int cols = interval_overlap(src.columns_of(i), dst.columns_of(j));
      if (cols > 0) {
        out.push_back({i, j, static_cast<double>(cols) * col_bytes});
      }
    }
  }
  return out;
}

TEST_P(PlanConservation, MatchesDenseReferenceExactly) {
  const auto [n, ps, pd] = GetParam();
  const auto plan = plan_block_redistribution(n, ps, pd);
  EXPECT_EQ(plan.p_src, ps);
  EXPECT_EQ(plan.p_dst, pd);
  const auto ref = dense_reference(n, ps, pd);
  ASSERT_EQ(plan.messages.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_EQ(plan.messages[k].src, ref[k].src) << k;
    EXPECT_EQ(plan.messages[k].dst, ref[k].dst) << k;
    EXPECT_EQ(plan.messages[k].bytes, ref[k].bytes) << k;
  }
  const BlockLayout1D src(n, ps), dst(n, pd);
  const Totals t = totals(plan);
  for (int i = 0; i < ps; ++i) EXPECT_EQ(t.sent[i], bytes_of(src, n, i));
  for (int j = 0; j < pd; ++j) EXPECT_EQ(t.received[j], bytes_of(dst, n, j));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanConservation,
    ::testing::Combine(::testing::Values(100, 2000, 3000),
                       ::testing::Values(1, 2, 5, 13, 32),
                       ::testing::Values(1, 3, 8, 32)));

}  // namespace
