#include "mtsched/obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "mtsched/core/table.hpp"

namespace mtsched::obs {

namespace {

/// Nearest-rank percentile of a sorted sample vector.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// The analyzer's input event (one Chrome event on one track).
struct FlatEvent {
  char phase = 'i';
  std::string category;
  std::string name;
  double ts = 0.0;  ///< seconds
};

/// A completed span, with its completed children — the per-track span
/// forest the critical path walks.
struct Node {
  std::string category;
  std::string name;
  double seconds = 0.0;
  std::vector<Node> children;
};

struct Accum {
  std::size_t count = 0;
  std::size_t incomplete = 0;
  double total = 0.0;
  double self = 0.0;
  std::vector<double> samples;
};

struct Builder {
  std::map<std::pair<std::string, std::string>, Accum> accums;
  TraceProfile profile;

  void add_track(const std::string& track_name,
                 const std::vector<FlatEvent>& events) {
    TrackProfile track;
    track.name = track_name;
    track.events = events.size();

    struct Open {
      std::string category;
      std::string name;
      double begin = 0.0;
      double child_seconds = 0.0;
      std::vector<Node> children;
    };
    std::vector<Open> stack;
    std::vector<Node> toplevel;
    double first_ts = 0.0;
    double last_ts = 0.0;
    bool saw_event = false;

    const auto close_span = [&](Open open, double ts, bool incomplete) {
      const double seconds = std::max(0.0, ts - open.begin);
      Accum& acc = accums[{open.category, open.name}];
      ++acc.count;
      if (incomplete) {
        ++acc.incomplete;
        ++profile.incomplete_spans;
      }
      acc.total += seconds;
      // Self time: this span minus what its direct children consumed.
      // Proper nesting makes the difference non-negative; clamp anyway so
      // a clock hiccup cannot produce negative attributions.
      acc.self += std::max(0.0, seconds - open.child_seconds);
      acc.samples.push_back(seconds);

      Node node{open.category, open.name, seconds, std::move(open.children)};
      if (stack.empty()) {
        track.span_seconds += seconds;
        toplevel.push_back(std::move(node));
      } else {
        stack.back().child_seconds += seconds;
        stack.back().children.push_back(std::move(node));
      }
    };

    for (const FlatEvent& e : events) {
      if (!saw_event) {
        first_ts = e.ts;
        saw_event = true;
      }
      last_ts = std::max(last_ts, e.ts);
      ++profile.total_events;
      switch (e.phase) {
        case 'B':
          stack.push_back(Open{e.category, e.name, e.ts, 0.0, {}});
          break;
        case 'E': {
          // An End closes the innermost open span of the same (category,
          // name). One with no such span (its Begin was dropped by the
          // cap, or the trace was truncated) has nothing to close; skip
          // it. Opens above the match lost their Ends — close them here,
          // marked incomplete, to keep the nesting consistent.
          std::size_t match = stack.size();
          while (match > 0 && (stack[match - 1].category != e.category ||
                               stack[match - 1].name != e.name)) {
            --match;
          }
          if (match == 0) break;
          while (stack.size() > match) {
            Open open = std::move(stack.back());
            stack.pop_back();
            close_span(std::move(open), e.ts, /*incomplete=*/true);
          }
          Open open = std::move(stack.back());
          stack.pop_back();
          close_span(std::move(open), e.ts, /*incomplete=*/false);
          break;
        }
        case 'C':
          ++profile.counter_events;
          break;
        default:
          ++profile.instant_events;
          break;
      }
    }
    // Auto-close spans left open at snapshot time, innermost first, at
    // the track's last timestamp — mirrors the Chrome exporter's healing.
    while (!stack.empty()) {
      Open open = std::move(stack.back());
      stack.pop_back();
      close_span(std::move(open), last_ts, /*incomplete=*/true);
    }

    track.extent_seconds = saw_event ? last_ts - first_ts : 0.0;

    // Critical path: the longest top-level span, then the longest child
    // at every level (ties resolved to the earliest completion, which is
    // deterministic for deterministic traces).
    const auto longest = [](const std::vector<Node>& nodes) -> const Node* {
      const Node* best = nullptr;
      for (const Node& n : nodes) {
        if (best == nullptr || n.seconds > best->seconds) best = &n;
      }
      return best;
    };
    int depth = 0;
    for (const Node* n = longest(toplevel); n != nullptr;
         n = longest(n->children), ++depth) {
      track.critical_path.push_back(
          CriticalPathNode{n->category, n->name, n->seconds, depth});
    }

    profile.tracks.push_back(std::move(track));
  }

  TraceProfile finish(std::size_t dropped) {
    profile.dropped_events = dropped;

    std::map<std::string, CategoryStats> categories;
    for (auto& [key, acc] : accums) {
      SpanStats s;
      s.category = key.first;
      s.name = key.second;
      s.count = acc.count;
      s.incomplete = acc.incomplete;
      s.total_seconds = acc.total;
      s.self_seconds = acc.self;
      s.mean_seconds = acc.total / static_cast<double>(acc.count);
      std::sort(acc.samples.begin(), acc.samples.end());
      s.p50_seconds = percentile(acc.samples, 0.50);
      s.p95_seconds = percentile(acc.samples, 0.95);
      s.max_seconds = acc.samples.back();
      CategoryStats& cat = categories[s.category];
      cat.category = s.category;
      cat.count += s.count;
      cat.total_seconds += s.total_seconds;
      cat.self_seconds += s.self_seconds;
      profile.spans.push_back(std::move(s));
    }
    for (auto& [name, cat] : categories) {
      profile.categories.push_back(std::move(cat));
    }

    for (std::size_t i = 0; i < profile.tracks.size(); ++i) {
      if (profile.bounding_track == TraceProfile::npos ||
          profile.tracks[i].extent_seconds >
              profile.tracks[profile.bounding_track].extent_seconds) {
        profile.bounding_track = i;
      }
    }
    if (profile.bounding_track != TraceProfile::npos) {
      profile.wall_seconds =
          profile.tracks[profile.bounding_track].extent_seconds;
    }
    return std::move(profile);
  }
};

/// One time unit for a whole report, chosen from its largest value so
/// columns align and stay readable; ordinal (normalized) traces land in
/// the "us" bucket, where the numbers read back as event counts.
struct TimeUnit {
  const char* suffix;
  double scale;
};

TimeUnit pick_unit(double max_seconds) {
  if (max_seconds >= 0.5) return {"s", 1.0};
  if (max_seconds >= 0.5e-3) return {"ms", 1e3};
  return {"us", 1e6};
}

std::string fmt_in(double seconds, const TimeUnit& u) {
  return core::fmt(seconds * u.scale, 3);
}

}  // namespace

TraceProfile TraceProfile::from_chrome(const ChromeTrace& trace) {
  // Regroup document-order events per track (the exporter groups them
  // already, but a hand-written or merged trace may not).
  std::size_t max_tid = trace.track_names.size();
  for (const ChromeEvent& e : trace.events) {
    max_tid = std::max(max_tid, static_cast<std::size_t>(e.tid) + 1);
  }
  std::vector<std::vector<FlatEvent>> per_track(max_tid);
  std::size_t dropped = 0;
  for (const ChromeEvent& e : trace.events) {
    if (e.phase == 'C' && e.name == "trace.dropped_events") {
      dropped = static_cast<std::size_t>(e.value);
      continue;
    }
    per_track[static_cast<std::size_t>(e.tid)].push_back(
        FlatEvent{e.phase, e.category, e.name, e.ts_us / 1e6});
  }
  Builder b;
  for (std::size_t tid = 0; tid < per_track.size(); ++tid) {
    std::string name = tid < trace.track_names.size()
                           ? trace.track_names[tid]
                           : "track " + std::to_string(tid);
    b.add_track(name, per_track[tid]);
  }
  return b.finish(dropped);
}

std::string render_profile(const TraceProfile& profile,
                           std::size_t max_spans) {
  std::ostringstream os;
  // Data loss headlines the report: a truncated trace silently skews
  // every total below, so the reader must see it before any number.
  if (profile.dropped_events > 0) {
    const std::size_t emitted = profile.total_events + profile.dropped_events;
    os << "*** TRUNCATED TRACE: " << profile.dropped_events << " of "
       << emitted
       << " events were dropped by the tracer's event cap ***\n"
       << "*** every count and duration below is a lower bound ***\n"
       << "*** raise --trace-cap, or use --trace-stream to capture "
          "unbounded runs in bounded memory ***\n\n";
  }
  os << "trace: " << profile.total_events << " events on "
     << profile.tracks.size() << " tracks ("
     << profile.counter_events << " counters, " << profile.instant_events
     << " instants)";
  const TimeUnit unit = pick_unit(profile.wall_seconds);
  if (profile.bounding_track != TraceProfile::npos) {
    os << "; wall " << fmt_in(profile.wall_seconds, unit) << ' '
       << unit.suffix << " bounded by track '"
       << profile.tracks[profile.bounding_track].name << "'";
  }
  os << '\n';
  if (profile.incomplete_spans > 0) {
    os << "WARNING: " << profile.incomplete_spans
       << " span(s) auto-closed at snapshot time (marked incomplete)\n";
  }

  if (!profile.categories.empty()) {
    double self_sum = 0.0;
    for (const auto& c : profile.categories) self_sum += c.self_seconds;
    os << "\nper-category attribution (" << unit.suffix << "):\n";
    core::TextTable cat_table;
    cat_table.set_header({"category", "spans", "total", "self", "self %"});
    for (const auto& c : profile.categories) {
      cat_table.add_row(
          {c.category, std::to_string(c.count),
           fmt_in(c.total_seconds, unit), fmt_in(c.self_seconds, unit),
           self_sum > 0.0
               ? core::fmt(c.self_seconds / self_sum * 100.0, 1)
               : core::fmt(0.0, 1)});
    }
    os << cat_table.render();
  }

  if (!profile.spans.empty()) {
    // Rank by self time: the span pairs that own the most un-delegated
    // time head the report.
    std::vector<const SpanStats*> ranked;
    ranked.reserve(profile.spans.size());
    for (const auto& s : profile.spans) ranked.push_back(&s);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const SpanStats* a, const SpanStats* b) {
                       return a->self_seconds > b->self_seconds;
                     });
    if (max_spans > 0 && ranked.size() > max_spans) {
      ranked.resize(max_spans);
    }
    os << "\nspans by self time (" << unit.suffix << "):\n";
    core::TextTable span_table;
    span_table.set_header({"category", "name", "count", "total", "self",
                           "mean", "p50", "p95", "max"});
    for (const SpanStats* s : ranked) {
      std::string count = std::to_string(s->count);
      if (s->incomplete > 0) {
        count += " (" + std::to_string(s->incomplete) + " incomplete)";
      }
      span_table.add_row({s->category, s->name, count,
                          fmt_in(s->total_seconds, unit),
                          fmt_in(s->self_seconds, unit),
                          fmt_in(s->mean_seconds, unit),
                          fmt_in(s->p50_seconds, unit),
                          fmt_in(s->p95_seconds, unit),
                          fmt_in(s->max_seconds, unit)});
    }
    os << span_table.render();
  }

  if (profile.bounding_track != TraceProfile::npos) {
    const TrackProfile& track = profile.tracks[profile.bounding_track];
    if (!track.critical_path.empty()) {
      os << "\ncritical path (track '" << track.name << "', "
         << unit.suffix << "):\n";
      for (const auto& node : track.critical_path) {
        os << "  " << std::string(static_cast<std::size_t>(node.depth) * 2,
                                  ' ')
           << node.category << '/' << node.name << "  "
           << fmt_in(node.seconds, unit) << '\n';
      }
    }
  }
  return os.str();
}

double SpanDelta::rel_delta() const {
  if (total_a <= 0.0) {
    return total_b > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return (total_b - total_a) / total_a;
}

TraceDiff TraceDiff::between(const TraceProfile& a, const TraceProfile& b,
                             const TraceDiffOptions& options) {
  std::map<std::pair<std::string, std::string>, SpanDelta> aligned;
  for (const auto& s : a.spans) {
    SpanDelta& d = aligned[{s.category, s.name}];
    d.category = s.category;
    d.name = s.name;
    d.count_a = s.count;
    d.total_a = s.total_seconds;
    d.self_a = s.self_seconds;
  }
  for (const auto& s : b.spans) {
    SpanDelta& d = aligned[{s.category, s.name}];
    d.category = s.category;
    d.name = s.name;
    d.count_b = s.count;
    d.total_b = s.total_seconds;
    d.self_b = s.self_seconds;
  }

  TraceDiff diff;
  diff.deltas.reserve(aligned.size());
  for (auto& [key, d] : aligned) diff.deltas.push_back(std::move(d));
  std::stable_sort(diff.deltas.begin(), diff.deltas.end(),
                   [](const SpanDelta& x, const SpanDelta& y) {
                     const double ax = std::abs(x.abs_delta());
                     const double ay = std::abs(y.abs_delta());
                     if (ax != ay) return ax > ay;
                     if (x.category != y.category) return x.category < y.category;
                     return x.name < y.name;
                   });
  for (const SpanDelta& d : diff.deltas) {
    if (d.only_in_a() || d.only_in_b()) {
      if (options.flag_disjoint &&
          std::abs(d.abs_delta()) >= options.abs_threshold_seconds) {
        diff.flagged.push_back(d);
      }
      continue;
    }
    if (std::abs(d.rel_delta()) > options.rel_threshold &&
        std::abs(d.abs_delta()) >= options.abs_threshold_seconds) {
      diff.flagged.push_back(d);
    }
  }
  return diff;
}

std::string render_diff(const TraceDiff& diff, std::size_t max_rows) {
  std::ostringstream os;
  double max_total = 0.0;
  for (const auto& d : diff.deltas) {
    max_total = std::max({max_total, d.total_a, d.total_b});
  }
  const TimeUnit unit = pick_unit(max_total);

  const auto add_row = [&unit](core::TextTable& t, const SpanDelta& d) {
    std::string rel;
    if (d.only_in_b()) {
      rel = "new in B";
    } else if (d.only_in_a()) {
      rel = "gone in B";
    } else {
      rel = (d.rel_delta() >= 0.0 ? "+" : "") +
            core::fmt(d.rel_delta() * 100.0, 1) + " %";
    }
    t.add_row({d.category, d.name,
               std::to_string(d.count_a) + " -> " + std::to_string(d.count_b),
               fmt_in(d.total_a, unit), fmt_in(d.total_b, unit),
               (d.abs_delta() >= 0.0 ? "+" : "") + fmt_in(d.abs_delta(), unit),
               rel});
  };

  os << "trace diff: " << diff.deltas.size() << " span pair(s) aligned, "
     << diff.flagged.size() << " beyond threshold (times in " << unit.suffix
     << ", A -> B)\n";
  if (!diff.flagged.empty()) {
    os << "\nflagged:\n";
    core::TextTable t;
    t.set_header(
        {"category", "name", "count", "total A", "total B", "delta", "rel"});
    for (const auto& d : diff.flagged) add_row(t, d);
    os << t.render();
  }
  if (!diff.deltas.empty()) {
    os << "\nall aligned pairs by |delta|:\n";
    core::TextTable t;
    t.set_header(
        {"category", "name", "count", "total A", "total B", "delta", "rel"});
    std::size_t rows = 0;
    for (const auto& d : diff.deltas) {
      if (max_rows > 0 && rows++ >= max_rows) break;
      add_row(t, d);
    }
    os << t.render();
    if (max_rows > 0 && diff.deltas.size() > max_rows) {
      os << "  ... " << diff.deltas.size() - max_rows << " more pair(s)\n";
    }
  }
  return os.str();
}

}  // namespace mtsched::obs
