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

TEST(BlockLayout, EvenDivision) {
  BlockLayout1D l(100, 4);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(l.num_columns(r), 25);
  EXPECT_EQ(l.columns_of(0), std::make_pair(0, 25));
  EXPECT_EQ(l.columns_of(3), std::make_pair(75, 100));
}

TEST(BlockLayout, RemainderGoesToFirstRanks) {
  BlockLayout1D l(10, 3);  // 4, 3, 3
  EXPECT_EQ(l.num_columns(0), 4);
  EXPECT_EQ(l.num_columns(1), 3);
  EXPECT_EQ(l.num_columns(2), 3);
  EXPECT_EQ(l.columns_of(1), std::make_pair(4, 7));
}

TEST(BlockLayout, OwnerIsConsistentWithColumns) {
  BlockLayout1D l(2000, 7);
  for (int r = 0; r < 7; ++r) {
    const auto [b, e] = l.columns_of(r);
    for (int c = b; c < e; c += 37) EXPECT_EQ(l.owner(c), r);
    EXPECT_EQ(l.owner(e - 1), r);
  }
}

TEST(BlockLayout, BytesOfUsesElementSize) {
  BlockLayout1D l(100, 4);
  EXPECT_DOUBLE_EQ(l.bytes_of(0), 25.0 * 100.0 * 8.0);
}

TEST(BlockLayout, Validation) {
  EXPECT_THROW(BlockLayout1D(0, 1), InvalidArgument);
  EXPECT_THROW(BlockLayout1D(10, 0), InvalidArgument);
  EXPECT_THROW(BlockLayout1D(4, 8), InvalidArgument);  // p > n
  BlockLayout1D ok(10, 10);
  EXPECT_EQ(ok.num_columns(9), 1);
  EXPECT_THROW(ok.columns_of(10), InvalidArgument);
  EXPECT_THROW(ok.owner(10), InvalidArgument);
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
  ASSERT_EQ(plan.num_messages(), 4);
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
  EXPECT_EQ(plan.num_messages(), 4);
  EXPECT_DOUBLE_EQ(plan.total_bytes(), mtsched::core::matrix_bytes(100));
}

TEST(Plan, ManyToOne) {
  const auto plan = plan_block_redistribution(100, 4, 1);
  EXPECT_EQ(plan.num_messages(), 4);
  EXPECT_DOUBLE_EQ(plan.total_bytes(), mtsched::core::matrix_bytes(100));
}

TEST(Plan, RowAndColumnTotalsMatchLayouts) {
  const int n = 2000, ps = 5, pd = 8;
  const auto plan = plan_block_redistribution(n, ps, pd);
  const BlockLayout1D src(n, ps), dst(n, pd);
  for (int i = 0; i < ps; ++i) {
    EXPECT_DOUBLE_EQ(plan.row_total(i), src.bytes_of(i));
  }
  for (int j = 0; j < pd; ++j) {
    EXPECT_DOUBLE_EQ(plan.col_total(j), dst.bytes_of(j));
  }
  EXPECT_THROW(plan.row_total(ps), InvalidArgument);
  EXPECT_THROW(plan.col_total(-1), InvalidArgument);
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

TEST(OverlapColumns, RequiresSameDimension) {
  BlockLayout1D a(100, 2), b(200, 2);
  EXPECT_THROW(overlap_columns(a, b, 0, 0), InvalidArgument);
}

/// Property sweep over (n, p_src, p_dst): every plan conserves the matrix
/// (total bytes equals the full n-by-n payload) and each message count is
/// bounded by p_src + p_dst - 1 (contiguous interval overlap structure).
class PlanConservation
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlanConservation, ConservesAndBoundsMessages) {
  const auto [n, ps, pd] = GetParam();
  const auto plan = plan_block_redistribution(n, ps, pd);
  EXPECT_NEAR(plan.total_bytes(), mtsched::core::matrix_bytes(n), 1e-6);
  EXPECT_LE(plan.num_messages(), ps + pd - 1);
  EXPECT_GE(plan.num_messages(), std::max(ps, pd));
}

/// The dense O(p_src * p_dst) reference: every overlap_columns pair, its
/// nonzeros in row-major order.
std::vector<Message> dense_reference(int n, int ps, int pd) {
  const BlockLayout1D src(n, ps), dst(n, pd);
  const double col_bytes = static_cast<double>(n) * mtsched::core::kElemBytes;
  std::vector<Message> out;
  for (int i = 0; i < ps; ++i) {
    for (int j = 0; j < pd; ++j) {
      const int cols = overlap_columns(src, dst, i, j);
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
  for (int i = 0; i < ps; ++i) EXPECT_EQ(plan.row_total(i), src.bytes_of(i));
  for (int j = 0; j < pd; ++j) EXPECT_EQ(plan.col_total(j), dst.bytes_of(j));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanConservation,
    ::testing::Combine(::testing::Values(100, 2000, 3000),
                       ::testing::Values(1, 2, 5, 13, 32),
                       ::testing::Values(1, 3, 8, 32)));

}  // namespace
