// Unit tests for mtsched::core — RNG determinism and distribution sanity,
// error macros, matrix, text tables and units.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "mtsched/core/error.hpp"
#include "mtsched/core/matrix.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/core/table.hpp"
#include "mtsched/core/units.hpp"

namespace {

using namespace mtsched::core;

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1'000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng r(1);
  EXPECT_THROW(r.uniform(2.0, 1.0), InvalidArgument);
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(r.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformIntSingleton) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntApproximatelyUniform) {
  Rng r(13);
  int counts[4] = {0, 0, 0, 0};
  const int trials = 40'000;
  for (int i = 0; i < trials; ++i) ++counts[r.uniform_int(0, 3)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.02);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(17);
  double sum = 0.0, sq = 0.0;
  const int trials = 50'000;
  for (int i = 0; i < trials; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.03);
  EXPECT_NEAR(sq / trials, 1.0, 0.05);
}

TEST(Rng, NormalWithParameters) {
  Rng r(19);
  double sum = 0.0;
  const int trials = 20'000;
  for (int i = 0; i < trials; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / trials, 10.0, 0.1);
}

TEST(Rng, LognormalUnitHasMeanOne) {
  Rng r(23);
  double sum = 0.0;
  const int trials = 100'000;
  for (int i = 0; i < trials; ++i) sum += r.lognormal_unit(0.1);
  EXPECT_NEAR(sum / trials, 1.0, 0.01);
}

TEST(Rng, LognormalZeroSigmaIsExactlyOne) {
  Rng r(29);
  EXPECT_DOUBLE_EQ(r.lognormal_unit(0.0), 1.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(HashMix, DeterministicAndSensitive) {
  EXPECT_EQ(hash_mix(1, 2, 3), hash_mix(1, 2, 3));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(1, 2, 4));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(3, 2, 1));
}

TEST(UnitHash, InUnitInterval) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = unit_hash(i, i * 7, i * 13);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(ErrorMacros, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MTSCHED_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(MTSCHED_REQUIRE(true, "fine"));
}

TEST(ErrorMacros, InvariantThrowsInternalError) {
  EXPECT_THROW(MTSCHED_INVARIANT(false, "bug"), InternalError);
}

TEST(ErrorMacros, MessageContainsContext) {
  try {
    MTSCHED_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Matrix, BasicAccessAndTotals) {
  Matrix<double> m(2, 3, 1.0);
  m(0, 1) = 5.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.col_total(1), 6.0);
  EXPECT_DOUBLE_EQ(m.col_total(2), 2.0);
}

TEST(Matrix, OutOfRangeThrows) {
  Matrix<double> m(2, 2);
  EXPECT_THROW(m(2, 0), InvalidArgument);
  EXPECT_THROW(m(0, 2), InvalidArgument);
  EXPECT_THROW(m.col_total(5), InvalidArgument);
}

TEST(Matrix, EqualityAndEmpty) {
  Matrix<int> a(2, 2, 1), b(2, 2, 1), c(2, 2, 2);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(Matrix<int>().empty());
  EXPECT_FALSE(a.empty());
}

TEST(TextTable, RendersAlignedColumnsWithRule) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const auto s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header, rule and the two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Hbar, PositiveExtendsRight) {
  const auto s = hbar(1.0, 1.0, 4);
  EXPECT_EQ(s, "    |####");
}

TEST(Hbar, NegativeExtendsLeft) {
  const auto s = hbar(-0.5, 1.0, 4);
  EXPECT_EQ(s, "  ##|    ");
}

TEST(Hbar, ClampsBeyondFullScale) {
  EXPECT_EQ(hbar(10.0, 1.0, 4), "    |####");
}

TEST(Hbar, RejectsBadArgs) {
  EXPECT_THROW(hbar(1.0, 0.0, 4), InvalidArgument);
  EXPECT_THROW(hbar(1.0, 1.0, 0), InvalidArgument);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(bps_to_Bps(1e9), 125e6);
  EXPECT_DOUBLE_EQ(usec(100.0), 1e-4);
}

}  // namespace
