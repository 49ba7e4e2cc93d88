// Tests for the span/event tracer: event recording, span nesting, the
// disabled (default-constructed) track, the ambient thread-local context,
// and concurrent emission (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/obs/chrome_trace.hpp"
#include "mtsched/obs/metrics.hpp"
#include "mtsched/obs/trace.hpp"

namespace {

using namespace mtsched::obs;

TEST(Trace, RootTrackRecordsEventsInOrder) {
  Tracer tracer;
  Track root = tracer.root();
  root.begin("cat", "outer");
  root.instant("cat", "tick", {{"k", "v"}});
  root.counter("cat", "gauge", 3.5);
  root.end("cat", "outer");

  ASSERT_EQ(tracer.snapshot().size(), 1u);
  EXPECT_EQ(tracer.num_events(), 4u);
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "main");
  ASSERT_EQ(snap[0].events.size(), 4u);
  EXPECT_EQ(snap[0].events[0].phase, Event::Phase::Begin);
  EXPECT_EQ(snap[0].events[1].phase, Event::Phase::Instant);
  ASSERT_EQ(snap[0].events[1].args.size(), 1u);
  EXPECT_EQ(snap[0].events[1].args[0].first, "k");
  EXPECT_EQ(snap[0].events[2].phase, Event::Phase::Counter);
  EXPECT_DOUBLE_EQ(snap[0].events[2].value, 3.5);
  EXPECT_EQ(snap[0].events[3].phase, Event::Phase::End);
}

TEST(Trace, TimestampsAreMonotonicWithinATrack) {
  Tracer tracer;
  Track root = tracer.root();
  for (int i = 0; i < 100; ++i) root.instant("cat", "e");
  const auto snap = tracer.snapshot();
  for (std::size_t i = 1; i < snap[0].events.size(); ++i) {
    EXPECT_LE(snap[0].events[i - 1].ts, snap[0].events[i].ts);
  }
}

TEST(Trace, TrackIdsFollowCreationOrder) {
  Tracer tracer;
  tracer.track("alpha");
  tracer.track("beta");
  const auto snap = tracer.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "main");
  EXPECT_EQ(snap[1].name, "alpha");
  EXPECT_EQ(snap[2].name, "beta");
}

TEST(Trace, SpanEmitsBeginAndEnd) {
  Tracer tracer;
  {
    const Span span(tracer.root(), "cat", "work", {{"n", "7"}});
    tracer.root().instant("cat", "inside");
  }
  const auto events = tracer.snapshot()[0].events;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, Event::Phase::Begin);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[1].name, "inside");
  EXPECT_EQ(events[2].phase, Event::Phase::End);
  EXPECT_EQ(events[2].name, "work");
}

TEST(Trace, DisabledTrackIsANoOp) {
  const Track disabled;
  EXPECT_FALSE(static_cast<bool>(disabled));
  // None of these may crash or allocate tracer state.
  disabled.begin("cat", "x");
  disabled.instant("cat", "y", {{"a", "b"}});
  disabled.counter("cat", "z", 1.0);
  disabled.end("cat", "x");
  const Span span(disabled, "cat", "scoped");
}

TEST(Trace, AmbientContextDefaultsToDisabled) {
  EXPECT_FALSE(static_cast<bool>(current_track()));
  EXPECT_EQ(current_metrics(), nullptr);
}

TEST(Trace, ScopedContextInstallsAndRestores) {
  Tracer tracer;
  MetricsRegistry metrics;
  {
    const ScopedContext outer(tracer.root(), &metrics);
    EXPECT_TRUE(static_cast<bool>(current_track()));
    EXPECT_EQ(current_metrics(), &metrics);
    current_track().instant("cat", "ambient");
    {
      const ScopedContext inner(Track{}, nullptr);
      EXPECT_FALSE(static_cast<bool>(current_track()));
      EXPECT_EQ(current_metrics(), nullptr);
    }
    EXPECT_TRUE(static_cast<bool>(current_track()));
    EXPECT_EQ(current_metrics(), &metrics);
  }
  EXPECT_FALSE(static_cast<bool>(current_track()));
  EXPECT_EQ(current_metrics(), nullptr);
  EXPECT_EQ(tracer.num_events(), 1u);
}

TEST(Trace, ContextIsPerThread) {
  Tracer tracer;
  const ScopedContext ctx(tracer.root());
  std::thread other([] {
    // A fresh thread sees no context even while this one has a scope.
    EXPECT_FALSE(static_cast<bool>(current_track()));
  });
  other.join();
}

TEST(Trace, ConcurrentEmissionIsSafe) {
  // Several threads emitting onto their own tracks plus one shared track
  // while another creates tracks — the mix TSan needs to see.
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kEvents = 500;
  Track shared = tracer.track("shared");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, shared, t] {
      Track own = tracer.track("worker " + std::to_string(t));
      for (int i = 0; i < kEvents; ++i) {
        own.instant("cat", "e");
        shared.counter("cat", "c", static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(tracer.snapshot().size(), 2u + kThreads);
  EXPECT_EQ(tracer.num_events(),
            static_cast<std::size_t>(2 * kThreads * kEvents));
  const auto snap = tracer.snapshot();
  // The shared track saw every counter sample; per-track order held.
  EXPECT_EQ(snap[1].events.size(), static_cast<std::size_t>(kThreads * kEvents));
}

TEST(ChromeTrace, RoundTripsEventsAndTrackNames) {
  Tracer tracer;
  Track root = tracer.root();
  Track aux = tracer.track("aux lane");
  root.begin("cat", "outer", {{"key", "a \"quoted\"\nvalue"}});
  aux.instant("other", "tick");
  root.counter("cat", "load", 2.5);
  root.end("cat", "outer");

  const auto parsed = parse_chrome_json(to_chrome_json(tracer));
  EXPECT_EQ(parsed.process_name, "mtsched");
  ASSERT_EQ(parsed.track_names.size(), 2u);
  EXPECT_EQ(parsed.track_names[0], "main");
  EXPECT_EQ(parsed.track_names[1], "aux lane");
  // Events serialize grouped per track, tracks in creation order.
  ASSERT_EQ(parsed.events.size(), 4u);
  EXPECT_EQ(parsed.events[0].phase, 'B');
  EXPECT_EQ(parsed.events[0].name, "outer");
  ASSERT_EQ(parsed.events[0].args.size(), 1u);
  EXPECT_EQ(parsed.events[0].args[0].second, "a \"quoted\"\nvalue");
  EXPECT_EQ(parsed.events[1].phase, 'C');
  EXPECT_DOUBLE_EQ(parsed.events[1].value, 2.5);
  EXPECT_EQ(parsed.events[2].phase, 'E');
  EXPECT_EQ(parsed.events[3].phase, 'i');
  EXPECT_EQ(parsed.events[3].tid, 1);
}

TEST(ChromeTrace, NormalizationMakesIdenticalWorkloadsByteIdentical) {
  const auto record = [](Tracer& tracer) {
    const Span s(tracer.root(), "cat", "work");
    tracer.track("t2").instant("cat", "x");
    tracer.root().instant("cat", "y");
  };
  Tracer a, b;
  record(a);
  record(b);
  ChromeTraceOptions opt;
  opt.normalize_timestamps = true;
  EXPECT_EQ(to_chrome_json(a, opt), to_chrome_json(b, opt));
  // Normalized timestamps are per-track ordinals.
  const auto parsed = parse_chrome_json(to_chrome_json(a, opt));
  for (const auto& e : parsed.events) {
    EXPECT_EQ(e.ts_us, static_cast<double>(static_cast<int>(e.ts_us)));
  }
}

TEST(ChromeTrace, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_chrome_json("not json"), mtsched::core::ParseError);
  EXPECT_THROW(parse_chrome_json("{\"traceEvents\": [}"),
               mtsched::core::ParseError);
}

TEST(Trace, EventCapDropsAndCounts) {
  Tracer tracer;
  MetricsRegistry metrics;
  tracer.set_event_cap(3, &metrics);
  Track root = tracer.root();
  for (int i = 0; i < 10; ++i) root.instant("cat", "e");

  EXPECT_EQ(tracer.num_events(), 3u);
  EXPECT_EQ(tracer.dropped_events(), 7u);
  EXPECT_EQ(tracer.snapshot()[0].events.size(), 3u);
  EXPECT_DOUBLE_EQ(metrics.counter("trace.dropped_events").value(), 7.0);
}

TEST(Trace, EventCapZeroMeansUnbounded) {
  Tracer tracer;
  Track root = tracer.root();
  for (int i = 0; i < 100; ++i) root.instant("cat", "e");
  EXPECT_EQ(tracer.num_events(), 100u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(Trace, EventCapIsThreadSafe) {
  Tracer tracer;
  tracer.set_event_cap(1000);
  constexpr int kThreads = 8;
  constexpr int kEvents = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      Track own = tracer.track("worker " + std::to_string(t));
      for (int i = 0; i < kEvents; ++i) own.instant("cat", "e");
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.num_events(), 1000u);
  EXPECT_EQ(tracer.dropped_events(),
            static_cast<std::size_t>(kThreads * kEvents - 1000));
}

TEST(ChromeTrace, ExporterAutoClosesUnbalancedSpans) {
  Tracer tracer;
  Track root = tracer.root();
  root.begin("cat", "outer");
  root.begin("cat", "inner");
  root.instant("cat", "tick");
  // Neither span is ended: the export must heal the trace, innermost
  // first, with the synthesized Ends marked incomplete.
  const auto json = to_chrome_json(tracer);
  const auto parsed = parse_chrome_json(json);
  ASSERT_EQ(parsed.events.size(), 5u);
  EXPECT_EQ(parsed.events[3].phase, 'E');
  EXPECT_EQ(parsed.events[3].name, "inner");
  ASSERT_EQ(parsed.events[3].args.size(), 1u);
  EXPECT_EQ(parsed.events[3].args[0].first, "incomplete");
  EXPECT_EQ(parsed.events[3].args[0].second, "true");
  EXPECT_EQ(parsed.events[4].phase, 'E');
  EXPECT_EQ(parsed.events[4].name, "outer");
}

TEST(ChromeTrace, ExporterEmitsDroppedEventsMarker) {
  Tracer tracer;
  tracer.set_event_cap(2);
  Track root = tracer.root();
  for (int i = 0; i < 5; ++i) root.instant("cat", "e");
  const auto parsed = parse_chrome_json(to_chrome_json(tracer));
  ASSERT_EQ(parsed.events.size(), 3u);
  const auto& marker = parsed.events.back();
  EXPECT_EQ(marker.phase, 'C');
  EXPECT_EQ(marker.name, "trace.dropped_events");
  EXPECT_DOUBLE_EQ(marker.value, 3.0);
}

TEST(ChromeTrace, NormalizedAutoCloseKeepsTimestampsStrictlyIncreasing) {
  Tracer tracer;
  tracer.root().begin("cat", "a");
  tracer.root().begin("cat", "b");
  ChromeTraceOptions opt;
  opt.normalize_timestamps = true;
  const auto parsed = parse_chrome_json(to_chrome_json(tracer, opt));
  ASSERT_EQ(parsed.events.size(), 4u);
  for (std::size_t i = 1; i < parsed.events.size(); ++i) {
    EXPECT_LT(parsed.events[i - 1].ts_us, parsed.events[i].ts_us);
  }
}

}  // namespace
