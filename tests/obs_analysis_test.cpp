// Tests for the trace analytics layer: self-time attribution, critical
// paths, tolerance of malformed traces, and the A/B diff that must name
// an injected slowdown.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "mtsched/obs/analysis.hpp"
#include "mtsched/obs/chrome_trace.hpp"
#include "mtsched/obs/trace.hpp"

namespace {

using namespace mtsched::obs;

// --- hand-written Chrome JSON: exact timestamps, exact expectations ----

std::string meta_json() {
  return "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"test\"}},"
         "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"main\"}}";
}

std::string event_json(char ph, const std::string& cat,
                       const std::string& name, double ts_us, int tid = 0) {
  return ",{\"ph\":\"" + std::string(1, ph) + "\",\"pid\":0,\"tid\":" +
         std::to_string(tid) + ",\"ts\":" + std::to_string(ts_us) +
         ",\"cat\":\"" + cat + "\",\"name\":\"" + name + "\"}";
}

std::string span_json(const std::string& cat, const std::string& name,
                      double begin_us, double end_us, int tid = 0) {
  return event_json('B', cat, name, begin_us, tid) +
         event_json('E', cat, name, end_us, tid);
}

std::string doc_json(const std::string& events) {
  return "{\"traceEvents\":[" + meta_json() + events + "]}";
}

TraceProfile profile_of(const std::string& events) {
  return TraceProfile::from_chrome(parse_chrome_json(doc_json(events)));
}

/// Profiles a live tracer the way `mtsched_cli trace-report` does: through
/// its Chrome export.
TraceProfile profile_of(const Tracer& tracer) {
  return TraceProfile::from_chrome(parse_chrome_json(to_chrome_json(tracer)));
}

/// The stats of one (category, name) pair, or nullptr.
const SpanStats* find_span(const TraceProfile& profile,
                           const std::string& category,
                           const std::string& name) {
  for (const auto& s : profile.spans) {
    if (s.category == category && s.name == name) return &s;
  }
  return nullptr;
}

constexpr double kTol = 1e-12;

TEST(TraceProfile, EmptyTraceProfilesToNothing) {
  const auto profile = TraceProfile::from_chrome(ChromeTrace{});
  EXPECT_TRUE(profile.spans.empty());
  EXPECT_TRUE(profile.categories.empty());
  EXPECT_TRUE(profile.tracks.empty());
  EXPECT_EQ(profile.bounding_track, TraceProfile::npos);
  EXPECT_DOUBLE_EQ(profile.wall_seconds, 0.0);
  EXPECT_EQ(profile.total_events, 0u);
  // Rendering an empty profile must not crash.
  EXPECT_NE(render_profile(profile).find("0 events"), std::string::npos);
}

TEST(TraceProfile, SingleEventTrack) {
  Tracer tracer;
  tracer.root().instant("cat", "tick");
  const auto profile = profile_of(tracer);
  EXPECT_EQ(profile.total_events, 1u);
  EXPECT_EQ(profile.instant_events, 1u);
  EXPECT_TRUE(profile.spans.empty());
  ASSERT_EQ(profile.tracks.size(), 1u);
  EXPECT_EQ(profile.tracks[0].name, "main");
  EXPECT_EQ(profile.tracks[0].events, 1u);
  EXPECT_DOUBLE_EQ(profile.tracks[0].extent_seconds, 0.0);
  EXPECT_TRUE(profile.tracks[0].critical_path.empty());
  EXPECT_EQ(profile.bounding_track, 0u);
}

TEST(TraceProfile, NestedSpansSelfTimeAndCriticalPath) {
  // outer [0, 100] containing child1 [10, 30], child2 [40, 90];
  // child2 contains grandchild [50, 80]. Times in microseconds.
  const auto profile = profile_of(
      event_json('B', "ph", "outer", 0) + event_json('B', "ph", "child1", 10) +
      event_json('E', "ph", "child1", 30) +
      event_json('B', "ph", "child2", 40) +
      event_json('B', "ph", "grandchild", 50) +
      event_json('E', "ph", "grandchild", 80) +
      event_json('E', "ph", "child2", 90) + event_json('E', "ph", "outer", 100));

  ASSERT_EQ(profile.spans.size(), 4u);
  const SpanStats* outer = find_span(profile, "ph", "outer");
  const SpanStats* child1 = find_span(profile, "ph", "child1");
  const SpanStats* child2 = find_span(profile, "ph", "child2");
  const SpanStats* grandchild = find_span(profile, "ph", "grandchild");
  ASSERT_TRUE(outer && child1 && child2 && grandchild);

  EXPECT_NEAR(outer->total_seconds, 100e-6, kTol);
  EXPECT_NEAR(outer->self_seconds, 30e-6, kTol);  // 100 - 20 - 50
  EXPECT_NEAR(child1->self_seconds, 20e-6, kTol);
  EXPECT_NEAR(child2->total_seconds, 50e-6, kTol);
  EXPECT_NEAR(child2->self_seconds, 20e-6, kTol);  // 50 - 30
  EXPECT_NEAR(grandchild->self_seconds, 30e-6, kTol);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_NEAR(outer->max_seconds, 100e-6, kTol);
  EXPECT_NEAR(outer->p50_seconds, 100e-6, kTol);

  // Self times sum to the top-level span time of the track.
  double self_sum = 0.0;
  for (const auto& s : profile.spans) self_sum += s.self_seconds;
  ASSERT_EQ(profile.tracks.size(), 1u);
  EXPECT_NEAR(self_sum, profile.tracks[0].span_seconds, kTol);
  EXPECT_NEAR(profile.tracks[0].span_seconds, 100e-6, kTol);
  EXPECT_NEAR(profile.wall_seconds, 100e-6, kTol);
  EXPECT_EQ(profile.bounding_track, 0u);

  // Critical path: outer -> child2 (the longer child) -> grandchild.
  const auto& path = profile.tracks[0].critical_path;
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].name, "outer");
  EXPECT_EQ(path[0].depth, 0);
  EXPECT_EQ(path[1].name, "child2");
  EXPECT_EQ(path[1].depth, 1);
  EXPECT_EQ(path[2].name, "grandchild");
  EXPECT_EQ(path[2].depth, 2);

  // Per-category rollup covers all four spans.
  ASSERT_EQ(profile.categories.size(), 1u);
  EXPECT_EQ(profile.categories[0].category, "ph");
  EXPECT_EQ(profile.categories[0].count, 4u);
  EXPECT_NEAR(profile.categories[0].self_seconds, 100e-6, kTol);

  // The rendered report names the attribution and the critical path.
  const auto text = render_profile(profile);
  EXPECT_NE(text.find("per-category attribution"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("grandchild"), std::string::npos);
}

TEST(TraceProfile, SelfTimesSumToTotalOnLiveTracer) {
  Tracer tracer;
  {
    const Span a(tracer.root(), "cat", "a");
    {
      const Span b(tracer.root(), "cat", "b");
      const Span c(tracer.root(), "cat", "c");
    }
    const Span d(tracer.root(), "cat", "d");
  }
  const auto profile = profile_of(tracer);
  ASSERT_EQ(profile.spans.size(), 4u);
  EXPECT_EQ(profile.incomplete_spans, 0u);
  double self_sum = 0.0;
  for (const auto& s : profile.spans) self_sum += s.self_seconds;
  ASSERT_EQ(profile.tracks.size(), 1u);
  EXPECT_NEAR(self_sum, profile.tracks[0].span_seconds, 1e-9);
  const SpanStats* a = find_span(profile, "cat", "a");
  ASSERT_NE(a, nullptr);
  EXPECT_NEAR(a->total_seconds, profile.tracks[0].span_seconds, 1e-9);
}

TEST(TraceProfile, UnbalancedSpansAreHealed) {
  // A Begin with no End is closed at the track's last timestamp; an End
  // with no Begin is ignored.
  const auto profile = profile_of(
      event_json('B', "ph", "open", 0) + event_json('B', "ph", "inner", 10) +
      event_json('E', "ph", "inner", 40) +
      event_json('E', "ph", "never_begun", 50));
  const SpanStats* open = find_span(profile, "ph", "open");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->incomplete, 1u);
  EXPECT_NEAR(open->total_seconds, 50e-6, kTol);  // closed at ts = 50
  EXPECT_EQ(profile.incomplete_spans, 1u);
  EXPECT_EQ(find_span(profile, "ph", "never_begun"), nullptr);
  EXPECT_NE(render_profile(profile).find("WARNING"), std::string::npos);
}

TEST(TraceProfile, FromChromeReadsDroppedEventsCounter) {
  const auto profile = profile_of(
      span_json("ph", "work", 0, 10) +
      ",{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0,\"cat\":\"trace\","
      "\"name\":\"trace.dropped_events\",\"args\":{\"value\":17}}");
  EXPECT_EQ(profile.dropped_events, 17u);
  // The marker is bookkeeping, not a span or a regular counter sample.
  EXPECT_EQ(find_span(profile, "trace", "trace.dropped_events"), nullptr);
  EXPECT_NE(render_profile(profile).find("17"), std::string::npos);
}

TEST(TraceProfile, MultiTrackBoundingTrackHasLargestExtent) {
  const auto profile = profile_of(span_json("ph", "short", 0, 50, 0) +
                                  span_json("ph", "long", 0, 200, 1));
  ASSERT_EQ(profile.tracks.size(), 2u);
  EXPECT_EQ(profile.bounding_track, 1u);
  EXPECT_NEAR(profile.wall_seconds, 200e-6, kTol);
}

// --- the diff -----------------------------------------------------------

TEST(TraceDiff, InjectedSlowdownIsNamedExactly) {
  // B is A with a 2.5x slowdown injected into sched/allocate only.
  const std::string common =
      span_json("sim", "simulate", 0, 400, 1) + span_json("exp", "run", 0, 350, 2);
  const auto a = profile_of(span_json("sched", "allocate", 0, 100) + common);
  const auto b = profile_of(span_json("sched", "allocate", 0, 250) + common);

  const auto diff = TraceDiff::between(a, b);  // default 10 % threshold
  ASSERT_EQ(diff.deltas.size(), 3u);
  ASSERT_EQ(diff.flagged.size(), 1u);
  EXPECT_EQ(diff.flagged[0].category, "sched");
  EXPECT_EQ(diff.flagged[0].name, "allocate");
  EXPECT_NEAR(diff.flagged[0].abs_delta(), 150e-6, kTol);
  EXPECT_NEAR(diff.flagged[0].rel_delta(), 1.5, 1e-9);
  // Largest |delta| sorts first.
  EXPECT_EQ(diff.deltas[0].name, "allocate");

  const auto text = render_diff(diff);
  EXPECT_NE(text.find("allocate"), std::string::npos);
  EXPECT_NE(text.find("flagged"), std::string::npos);
}

TEST(TraceDiff, ThresholdsSuppressSmallChanges) {
  const auto a = profile_of(span_json("sched", "allocate", 0, 100));
  const auto b = profile_of(span_json("sched", "allocate", 0, 105));
  EXPECT_TRUE(TraceDiff::between(a, b).flagged.empty());  // 5 % < 10 %

  TraceDiffOptions strict;
  strict.rel_threshold = 0.01;
  EXPECT_EQ(TraceDiff::between(a, b, strict).flagged.size(), 1u);

  strict.abs_threshold_seconds = 1.0;  // but the move is microseconds
  EXPECT_TRUE(TraceDiff::between(a, b, strict).flagged.empty());
}

TEST(TraceDiff, DisjointSpanSetsAlignAsOneSided) {
  const auto a = profile_of(span_json("old", "phase", 0, 100));
  const auto b = profile_of(span_json("new", "phase", 0, 100));
  const auto diff = TraceDiff::between(a, b);
  ASSERT_EQ(diff.deltas.size(), 2u);
  EXPECT_EQ(diff.flagged.size(), 2u);
  bool saw_gone = false, saw_new = false;
  for (const auto& d : diff.deltas) {
    if (d.only_in_a()) {
      saw_gone = true;
      EXPECT_EQ(d.category, "old");
      EXPECT_EQ(d.count_b, 0u);
      EXPECT_NEAR(d.rel_delta(), -1.0, kTol);
    }
    if (d.only_in_b()) {
      saw_new = true;
      EXPECT_EQ(d.category, "new");
      EXPECT_TRUE(std::isinf(d.rel_delta()));
    }
  }
  EXPECT_TRUE(saw_gone && saw_new);

  TraceDiffOptions opt;
  opt.flag_disjoint = false;
  EXPECT_TRUE(TraceDiff::between(a, b, opt).flagged.empty());

  const auto text = render_diff(diff);
  EXPECT_NE(text.find("new in B"), std::string::npos);
  EXPECT_NE(text.find("gone in B"), std::string::npos);
}

TEST(TraceDiff, IdenticalProfilesProduceNoFlags) {
  const auto a = profile_of(span_json("ph", "work", 0, 100));
  const auto diff = TraceDiff::between(a, a);
  ASSERT_EQ(diff.deltas.size(), 1u);
  EXPECT_TRUE(diff.flagged.empty());
  EXPECT_DOUBLE_EQ(diff.deltas[0].abs_delta(), 0.0);
  EXPECT_DOUBLE_EQ(diff.deltas[0].rel_delta(), 0.0);
}

}  // namespace
