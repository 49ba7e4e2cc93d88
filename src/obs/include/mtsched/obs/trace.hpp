// Low-overhead span/event tracer.
//
// The tracer records *events* (span begin/end, instants, counter samples)
// onto *tracks* — logical execution lanes that become thread rows in a
// Chrome trace viewer. Tracks are logical rather than physical on
// purpose: a campaign job emits onto the track of the job, not of
// whichever pool worker happens to run it, so two runs of the same spec
// produce the same event sequence per track no matter how the scheduler
// interleaves threads. Exported track ids are dense and follow creation
// order, which is fixed by spec expansion.
//
// Cost model:
//   * disabled tracing is a default-constructed Track — every emission
//     call is one null check, and instrumentation sites that would build
//     names or args guard with `if (track)` first;
//   * enabled tracing appends to a per-track buffer under a per-track
//     mutex; tracks are written by one thread at a time in practice, so
//     the lock is uncontended. Creating tracks takes a registry lock.
//
// Timestamps come from a monotonic clock, as seconds since the tracer's
// construction. They are the only nondeterministic part of a trace; the
// Chrome exporter can normalize them away (see chrome_trace.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mtsched::obs {

class Counter;
class MetricsRegistry;
class Tracer;

/// Key/value annotations attached to an event. Values are preformatted
/// strings; keep them short (they are serialized verbatim).
using Args = std::vector<std::pair<std::string, std::string>>;

/// One trace event. `category` must point at storage outliving the
/// tracer (string literals in practice); names are owned.
struct Event {
  enum class Phase : char {
    Begin = 'B',    ///< span opens (nest within one track)
    End = 'E',      ///< span closes
    Instant = 'i',  ///< point event
    Counter = 'C',  ///< numeric sample of `name`
  };

  Phase phase = Phase::Instant;
  const char* category = "";
  std::string name;
  double ts = 0.0;     ///< seconds since tracer construction (monotonic)
  double value = 0.0;  ///< Counter events only
  Args args;
};

/// Sink for streamed trace events (see Tracer::set_stream). Batches are
/// delivered in emission order per track; batches from different tracks
/// may arrive interleaved and concurrently, so implementations serialize
/// internally (ChromeStreamWriter does).
class EventStream {
 public:
  virtual ~EventStream() = default;

  /// One flushed batch from track `tid` (its dense creation index).
  virtual void on_events(std::size_t tid, const std::string& track_name,
                         std::span<const Event> events) = 0;
};

namespace detail {
/// Per-track storage. Lives in the tracer's deque, so the address is
/// stable for the tracer's lifetime and Track handles can point straight
/// at it without going through the registry.
struct Lane {
  Lane(std::string lane_name, std::size_t lane_tid)
      : name(std::move(lane_name)), tid(lane_tid) {}

  std::string name;
  std::size_t tid;
  mutable std::mutex mutex;
  std::vector<Event> events;
};
}  // namespace detail

/// Handle onto one tracer lane. Copyable and cheap; a default-constructed
/// Track is the disabled tracer — all emissions are no-ops.
class Track {
 public:
  Track() = default;

  explicit operator bool() const { return tracer_ != nullptr; }

  /// Opens a span. Spans must nest properly within one track; close with
  /// end() or use the Span RAII helper.
  void begin(const char* category, std::string name, Args args = {}) const;
  void end(const char* category, std::string name) const;

  void instant(const char* category, std::string name, Args args = {}) const;

  /// Samples counter `name` at the current time.
  void counter(const char* category, std::string name, double value) const;

 private:
  friend class Tracer;
  Track(Tracer* tracer, detail::Lane* lane) : tracer_(tracer), lane_(lane) {}

  void emit(Event e) const;

  Tracer* tracer_ = nullptr;
  detail::Lane* lane_ = nullptr;
};

/// RAII span: begins on construction, ends on destruction. On a disabled
/// track it stores and formats nothing.
class Span {
 public:
  Span(Track track, const char* category, std::string_view name,
       Args args = {})
      : track_(track), category_(category) {
    if (track_) {
      name_ = name;
      track_.begin(category_, name_, std::move(args));
    }
  }
  /// Lazy arguments: `make_args()` builds them only when the track is
  /// live, so a disabled span on a hot path formats nothing.
  template <std::invocable MakeArgs>
  Span(Track track, const char* category, std::string_view name,
       MakeArgs&& make_args)
      : track_(track), category_(category) {
    if (track_) {
      name_ = name;
      track_.begin(category_, name_, make_args());
    }
  }
  ~Span() {
    if (track_) track_.end(category_, std::move(name_));
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Track track_;
  const char* category_;
  std::string name_;
};

/// Thread-safe event store. Create tracks with track(); emit through the
/// returned handles; export with snapshot() (or obs::to_chrome_json).
class Tracer {
 public:
  Tracer();
  /// Flushes any buffered events to the stream (when one is attached).
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The implicit first track ("main").
  Track root();

  /// Registers a new track. Thread-safe; ids are assigned in call order,
  /// so create tracks deterministically (e.g. at spec expansion) when
  /// diffable traces matter.
  Track track(std::string name);

  /// Caps the total number of events this tracer retains so unattended
  /// week-long campaigns cannot grow without bound; emissions beyond the
  /// cap are dropped (silently for the emitter) and counted. 0 (the
  /// default) means unlimited. When `metrics` is non-null every drop
  /// also increments its "trace.dropped_events" counter. Set the cap
  /// before emission starts; it is not meant to be flipped mid-run.
  void set_event_cap(std::size_t max_events,
                     MetricsRegistry* metrics = nullptr);

  /// Events dropped by the cap so far (0 without a cap).
  std::size_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }

  /// Switches the tracer from capture to streaming: each track buffers at
  /// most `ring_capacity` events and hands the full buffer to `stream`
  /// before admitting more, so memory stays bounded at
  /// tracks * ring_capacity no matter how long the run is. Flushed events
  /// no longer count against the event cap — a capped tracer that
  /// streams effectively never truncates. Attach before emission starts
  /// and keep `stream` alive for the tracer's lifetime; pass nullptr to
  /// detach. Call flush_stream() (or destroy the tracer) before
  /// finalizing the sink so the tail of each buffer is delivered.
  void set_stream(EventStream* stream, std::size_t ring_capacity = 4096);

  /// Delivers every track's buffered tail to the attached stream.
  void flush_stream();

  std::size_t num_events() const;

  struct TrackSnapshot {
    std::string name;
    std::vector<Event> events;  ///< emission order
  };

  /// Copies all tracks in creation order, events in emission order.
  std::vector<TrackSnapshot> snapshot() const;

 private:
  friend class Track;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Reserves storage for one event; false (and a drop count) when the
  /// cap is reached. Lock-free.
  bool admit();

  /// Hands the lane's buffered events to the stream and clears the
  /// buffer. Caller holds the lane mutex.
  void flush_lane(detail::Lane& lane);

  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  mutable std::mutex registry_mutex_;
  std::deque<detail::Lane> lanes_;  // deque: stable addresses for handles
  std::atomic<std::size_t> event_cap_{0};  // 0 = unlimited
  std::atomic<std::size_t> stored_events_{0};
  std::atomic<std::size_t> dropped_events_{0};
  std::atomic<Counter*> dropped_counter_{nullptr};
  std::atomic<EventStream*> stream_{nullptr};
  std::atomic<std::size_t> ring_capacity_{0};
};

// --- ambient context ----------------------------------------------------
//
// Deep layers (scheduling algorithms, the simulation engine) emit onto
// the *current* track without threading a handle through every signature.
// The context is thread-local; a campaign worker scopes it per job.

/// The calling thread's current track (disabled when no scope is active).
Track current_track();

/// The calling thread's current metrics registry (null when none).
MetricsRegistry* current_metrics();

/// Installs (track, metrics) as the calling thread's context for the
/// scope's lifetime; restores the previous context on destruction.
class ScopedContext {
 public:
  explicit ScopedContext(Track track, MetricsRegistry* metrics = nullptr);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Track prev_track_;
  MetricsRegistry* prev_metrics_;
};

}  // namespace mtsched::obs
