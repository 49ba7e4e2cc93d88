// Tests for the machine-readable benchmark report (BENCH_<name>.json):
// deterministic serialization and a faithful round trip through the
// shared JSON parser.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/obs/bench_report.hpp"
#include "mtsched/obs/json.hpp"

namespace {

using namespace mtsched::obs;

/// Parses what BenchReport::to_json writes, through the shared JSON
/// parser. Throws core::ParseError on malformed input or a wrong/missing
/// schema marker.
BenchReport parse_report(const std::string& text) {
  const char* what = "bench report JSON";
  const json::Value doc = json::parse(text, what);
  if (doc.type != json::Value::Type::Object ||
      json::member(doc, "schema", what).str != "mtsched.bench.v1") {
    throw mtsched::core::ParseError("bench report: not mtsched.bench.v1");
  }
  BenchReport r;
  r.name = json::member(doc, "name", what).str;
  r.wall_seconds = json::member(doc, "wall_seconds", what).num;
  for (const auto& [metric, v] : json::member(doc, "metrics", what).members) {
    r.metrics[metric] = v.num;
  }
  for (const json::Value& t : json::member(doc, "throughput", what).items) {
    r.throughput.push_back({json::member(t, "name", what).str,
                            json::member(t, "seconds_per_iteration", what).num,
                            json::member(t, "items_per_second", what).num});
  }
  return r;
}

BenchReport sample() {
  BenchReport r;
  r.name = "micro_sched";
  r.wall_seconds = 1.25;
  r.metrics["campaign.jobs"] = 108;
  r.metrics["campaign.cache_hits"] = 54;
  r.metrics["trace.dropped_events"] = 0;
  r.throughput.push_back({"BM_Allocation/cpa/10", 1.5e-4, 66666.5});
  r.throughput.push_back({"BM_TwoStepPipeline/50", 0.02, 0.0});
  return r;
}

TEST(BenchReport, RoundTripsThroughJson) {
  const auto original = sample();
  const auto parsed = parse_report(original.to_json());
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_DOUBLE_EQ(parsed.wall_seconds, original.wall_seconds);
  EXPECT_EQ(parsed.metrics, original.metrics);
  ASSERT_EQ(parsed.throughput.size(), 2u);
  EXPECT_EQ(parsed.throughput[0].name, "BM_Allocation/cpa/10");
  EXPECT_DOUBLE_EQ(parsed.throughput[0].seconds_per_iteration, 1.5e-4);
  EXPECT_DOUBLE_EQ(parsed.throughput[0].items_per_second, 66666.5);
  EXPECT_DOUBLE_EQ(parsed.throughput[1].items_per_second, 0.0);
  // Equal reports serialize byte-identically.
  EXPECT_EQ(parsed.to_json(), original.to_json());
}

TEST(BenchReport, EmptyReportRoundTrips) {
  BenchReport r;
  r.name = "empty";
  const auto parsed = parse_report(r.to_json());
  EXPECT_EQ(parsed.name, "empty");
  EXPECT_TRUE(parsed.metrics.empty());
  EXPECT_TRUE(parsed.throughput.empty());
}

TEST(BenchReport, SchemaIsStamped) {
  EXPECT_NE(sample().to_json().find("\"schema\": \"mtsched.bench.v1\""),
            std::string::npos);
}

TEST(BenchReport, RejectsWrongOrMissingSchema) {
  EXPECT_THROW(parse_report("{\"schema\": \"other.v9\"}"),
               mtsched::core::ParseError);
  EXPECT_THROW(parse_report("{\"name\": \"x\"}"),
               mtsched::core::ParseError);
  EXPECT_THROW(parse_report("not json"),
               mtsched::core::ParseError);
}

TEST(BenchReport, FilenameFollowsConvention) {
  EXPECT_EQ(sample().filename(), "BENCH_micro_sched.json");
}

}  // namespace
