// Trace analytics: turn a raw span trace into the per-phase attributions
// and A/B comparisons the paper's methodology argues with.
//
// TraceProfile consumes a parsed Chrome trace and computes, per
// (category, name) span pair:
//   * count, total time, and *self* time — total minus the time spent in
//     spans nested inside it on the same track, so a phase that merely
//     contains an expensive child is not blamed for it;
//   * mean/p50/p95/max of the individual span durations.
// plus per-category rollups, per-track summaries, and the **critical
// path**: within the track that bounds wall time (largest first-to-last
// event extent), the chain built by starting at the longest top-level
// span and descending into the longest child at every nesting level —
// the spans that must shrink for the trace to get faster.
//
// TraceDiff aligns two profiles by (category, name) and reports per-pair
// deltas, flagging the ones whose total time moved beyond configurable
// relative/absolute thresholds — so an injected slowdown in
// `sched/allocate` is *named*, not just noticed.
//
// Times are seconds. For traces exported with --trace-normalize,
// timestamps are per-track event ordinals, so every "seconds" figure is
// really an event count: profiles stay deterministic and diffs flag
// *structural* changes (more simulator events, extra reshares) rather
// than wall-clock noise — exactly what CI wants.
//
// Malformed input is tolerated the same way the exporter heals it: a
// Begin with no matching End is closed at the track's last timestamp and
// counted in `incomplete`; an End with no matching Begin is ignored.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mtsched/obs/chrome_trace.hpp"

namespace mtsched::obs {

/// Aggregated statistics of one (category, name) span pair.
struct SpanStats {
  std::string category;
  std::string name;
  std::size_t count = 0;
  std::size_t incomplete = 0;  ///< spans auto-closed at snapshot time
  double total_seconds = 0.0;
  double self_seconds = 0.0;  ///< total minus same-track nested children
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;  ///< nearest-rank percentile of span durations
  double p95_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Per-category rollup of SpanStats.
struct CategoryStats {
  std::string category;
  std::size_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
};

/// One hop of a critical path: a span and its nesting depth.
struct CriticalPathNode {
  std::string category;
  std::string name;
  double seconds = 0.0;
  int depth = 0;  ///< 0 = top-level span
};

/// Per-track summary.
struct TrackProfile {
  std::string name;
  std::size_t events = 0;
  double extent_seconds = 0.0;  ///< last event ts minus first event ts
  double span_seconds = 0.0;    ///< sum of top-level span durations
  std::vector<CriticalPathNode> critical_path;
};

struct TraceProfile {
  /// Deterministic order: by category, then name.
  std::vector<SpanStats> spans;
  std::vector<CategoryStats> categories;
  /// Tracks in creation (tid) order.
  std::vector<TrackProfile> tracks;
  /// Index into `tracks` of the track with the largest extent — the lane
  /// that bounds wall time. npos when the trace has no events.
  std::size_t bounding_track = npos;
  double wall_seconds = 0.0;  ///< the bounding track's extent
  std::size_t total_events = 0;
  std::size_t counter_events = 0;
  std::size_t instant_events = 0;
  std::size_t incomplete_spans = 0;  ///< auto-closed Begins, all tracks
  std::size_t dropped_events = 0;    ///< events lost to the tracer's cap

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Profiles a parsed Chrome trace (timestamps in microseconds; the
  /// "trace.dropped_events" counter event, when present, fills
  /// `dropped_events`).
  static TraceProfile from_chrome(const ChromeTrace& trace);
};

/// Aligned ASCII report: per-category attribution, the top spans by self
/// time (all of them when `max_spans` is 0), the critical path, and a
/// data-loss warning when spans were auto-closed or events dropped.
std::string render_profile(const TraceProfile& profile,
                           std::size_t max_spans = 0);

/// One (category, name) pair across two profiles. `count_a == 0` (or
/// `count_b == 0`) marks a pair present on one side only.
struct SpanDelta {
  std::string category;
  std::string name;
  std::size_t count_a = 0;
  std::size_t count_b = 0;
  double total_a = 0.0;
  double total_b = 0.0;
  double self_a = 0.0;
  double self_b = 0.0;

  double abs_delta() const { return total_b - total_a; }
  /// Relative change of total time, b vs a; +inf for pairs new in b.
  double rel_delta() const;
  bool only_in_a() const { return count_b == 0; }
  bool only_in_b() const { return count_a == 0; }
};

struct TraceDiffOptions {
  /// Flag a pair when |rel_delta| exceeds this fraction (0.10 = 10 %)...
  double rel_threshold = 0.10;
  /// ...and |abs_delta| exceeds this many seconds (guards tiny spans
  /// whose relative jitter is meaningless).
  double abs_threshold_seconds = 0.0;
  /// Flag pairs that exist on only one side.
  bool flag_disjoint = true;
};

struct TraceDiff {
  /// Every (category, name) pair of either side, sorted by |abs_delta|
  /// descending (ties: category, then name).
  std::vector<SpanDelta> deltas;
  /// The subset beyond the thresholds, same order. Empty = no regression
  /// (or improvement) worth naming.
  std::vector<SpanDelta> flagged;

  static TraceDiff between(const TraceProfile& a, const TraceProfile& b,
                           const TraceDiffOptions& options = {});
};

/// Aligned ASCII report of a diff: flagged pairs first, then the full
/// alignment (top `max_rows` by |delta|; 0 = all).
std::string render_diff(const TraceDiff& diff, std::size_t max_rows = 0);

}  // namespace mtsched::obs
