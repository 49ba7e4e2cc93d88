#include "mtsched/obs/trace.hpp"

#include "mtsched/obs/metrics.hpp"

namespace mtsched::obs {

void Track::emit(Event e) const {
  if (!tracer_->admit()) return;
  e.ts = tracer_->now();
  std::lock_guard lock(lane_->mutex);
  lane_->events.push_back(std::move(e));
  const std::size_t ring =
      tracer_->ring_capacity_.load(std::memory_order_relaxed);
  if (ring != 0 && lane_->events.size() >= ring) {
    tracer_->flush_lane(*lane_);
  }
}

void Track::begin(const char* category, std::string name, Args args) const {
  if (!tracer_) return;
  Event e;
  e.phase = Event::Phase::Begin;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args);
  emit(std::move(e));
}

void Track::end(const char* category, std::string name) const {
  if (!tracer_) return;
  Event e;
  e.phase = Event::Phase::End;
  e.category = category;
  e.name = std::move(name);
  emit(std::move(e));
}

void Track::instant(const char* category, std::string name, Args args) const {
  if (!tracer_) return;
  Event e;
  e.phase = Event::Phase::Instant;
  e.category = category;
  e.name = std::move(name);
  e.args = std::move(args);
  emit(std::move(e));
}

void Track::counter(const char* category, std::string name,
                    double value) const {
  if (!tracer_) return;
  Event e;
  e.phase = Event::Phase::Counter;
  e.category = category;
  e.name = std::move(name);
  e.value = value;
  emit(std::move(e));
}

Tracer::Tracer() : epoch_(Clock::now()) { lanes_.emplace_back("main", 0); }

Tracer::~Tracer() {
  if (stream_.load(std::memory_order_acquire) != nullptr) flush_stream();
}

void Tracer::set_stream(EventStream* stream, std::size_t ring_capacity) {
  ring_capacity_.store(stream != nullptr ? ring_capacity : 0,
                       std::memory_order_relaxed);
  stream_.store(stream, std::memory_order_release);
}

void Tracer::flush_lane(detail::Lane& lane) {
  EventStream* stream = stream_.load(std::memory_order_acquire);
  if (stream == nullptr || lane.events.empty()) return;
  stream->on_events(lane.tid, lane.name, lane.events);
  // Streamed events leave the tracer, so they stop counting against the
  // event cap (admit() only counts while a cap is set).
  if (event_cap_.load(std::memory_order_relaxed) != 0) {
    stored_events_.fetch_sub(lane.events.size(), std::memory_order_relaxed);
  }
  lane.events.clear();
}

void Tracer::flush_stream() {
  std::lock_guard lock(registry_mutex_);
  for (auto& lane : lanes_) {
    std::lock_guard lane_lock(lane.mutex);
    flush_lane(lane);
  }
}

void Tracer::set_event_cap(std::size_t max_events, MetricsRegistry* metrics) {
  event_cap_.store(max_events, std::memory_order_relaxed);
  dropped_counter_.store(
      metrics != nullptr ? &metrics->counter("trace.dropped_events") : nullptr,
      std::memory_order_release);
}

bool Tracer::admit() {
  const std::size_t cap = event_cap_.load(std::memory_order_relaxed);
  if (cap == 0) return true;
  // Reserve a slot optimistically; back the reservation out on overflow
  // so concurrent emitters never overshoot by more than their own event.
  if (stored_events_.fetch_add(1, std::memory_order_relaxed) < cap) {
    return true;
  }
  stored_events_.fetch_sub(1, std::memory_order_relaxed);
  dropped_events_.fetch_add(1, std::memory_order_relaxed);
  if (Counter* c = dropped_counter_.load(std::memory_order_acquire)) c->add();
  return false;
}

Track Tracer::root() { return Track(this, &lanes_.front()); }

Track Tracer::track(std::string name) {
  std::lock_guard lock(registry_mutex_);
  lanes_.emplace_back(std::move(name), lanes_.size());
  return Track(this, &lanes_.back());
}

std::size_t Tracer::num_events() const {
  std::size_t n = 0;
  std::lock_guard lock(registry_mutex_);
  for (const auto& lane : lanes_) {
    std::lock_guard lane_lock(lane.mutex);
    n += lane.events.size();
  }
  return n;
}

std::vector<Tracer::TrackSnapshot> Tracer::snapshot() const {
  std::vector<TrackSnapshot> out;
  std::lock_guard lock(registry_mutex_);
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    std::lock_guard lane_lock(lane.mutex);
    out.push_back(TrackSnapshot{lane.name, lane.events});
  }
  return out;
}

namespace {
thread_local Track t_current_track;
thread_local MetricsRegistry* t_current_metrics = nullptr;
}  // namespace

Track current_track() { return t_current_track; }

MetricsRegistry* current_metrics() { return t_current_metrics; }

ScopedContext::ScopedContext(Track track, MetricsRegistry* metrics)
    : prev_track_(t_current_track), prev_metrics_(t_current_metrics) {
  t_current_track = track;
  t_current_metrics = metrics;
}

ScopedContext::~ScopedContext() {
  t_current_track = prev_track_;
  t_current_metrics = prev_metrics_;
}

}  // namespace mtsched::obs
