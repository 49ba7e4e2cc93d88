// Tests for the metrics registry: instrument identity, histogram
// percentiles, type-mismatch detection, deterministic rendering, and
// concurrent updates (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/obs/metrics.hpp"

namespace {

using namespace mtsched::obs;
using mtsched::core::InvalidArgument;

TEST(Metrics, CounterFindOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("events");
  Counter& b = reg.counter("events");
  EXPECT_EQ(&a, &b);
  a.add();
  b.add(4);
  EXPECT_EQ(a.value(), 5u);
}

TEST(Metrics, HistogramNearestRankPercentiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("latency");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const auto s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
}

TEST(Metrics, EmptyHistogramSummaryIsZero) {
  MetricsRegistry reg;
  const auto s = reg.histogram("empty").summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Metrics, SingleSampleHistogram) {
  MetricsRegistry reg;
  reg.histogram("one").observe(7.0);
  const auto s = reg.histogram("one").summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 7.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.0);
}

TEST(Metrics, NameTypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.histogram("x"), InvalidArgument);
  reg.histogram("y");
  EXPECT_THROW(reg.counter("y"), InvalidArgument);
}

TEST(Metrics, RenderIsNameSortedAndDeterministic) {
  MetricsRegistry reg;
  reg.histogram("b.hist").observe(1.0);
  reg.counter("a.count").add(3);
  reg.counter("c.count").add(2);
  const std::string r1 = reg.render();
  const std::string r2 = reg.render();
  EXPECT_EQ(r1, r2);
  // Name order, independent of creation order.
  EXPECT_LT(r1.find("a.count"), r1.find("b.hist"));
  EXPECT_LT(r1.find("b.hist"), r1.find("c.count"));
  EXPECT_NE(r1.find("3"), std::string::npos);
}

TEST(Metrics, ConcurrentUpdatesAreSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // find-or-create races with updates from the other workers.
      Counter& c = reg.counter("shared.count");
      Histogram& h = reg.histogram("shared.hist");
      for (int i = 0; i < kOps; ++i) {
        c.add();
        h.observe(static_cast<double>(i));
        reg.counter("shared.lookups").add();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("shared.count").value(),
            static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(reg.counter("shared.lookups").value(),
            static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_EQ(reg.histogram("shared.hist").summary().count,
            static_cast<std::size_t>(kThreads * kOps));
}

}  // namespace
