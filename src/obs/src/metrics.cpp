#include "mtsched/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mtsched/core/error.hpp"
#include "mtsched/core/table.hpp"

namespace mtsched::obs {

namespace {

/// Nearest-rank percentile of a sorted sample vector.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

}  // namespace

void Histogram::observe(double v) {
  std::lock_guard lock(mutex_);
  samples_.push_back(v);
}

HistogramSummary Histogram::summary() const {
  std::vector<double> sorted;
  {
    std::lock_guard lock(mutex_);
    sorted = samples_;
  }
  HistogramSummary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = percentile(sorted, 0.50);
  s.p95 = percentile(sorted, 0.95);
  s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
           static_cast<double>(sorted.size());
  return s;
}

MetricsRegistry::Instrument& MetricsRegistry::find_or_create(
    const std::string& name, InstrumentType type) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] = instruments_.try_emplace(name);
  Instrument& inst = it->second;
  if (inserted) {
    inst.type = type;
    switch (type) {
      case InstrumentType::Counter:
        inst.counter = std::make_unique<Counter>();
        break;
      case InstrumentType::Histogram:
        inst.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  MTSCHED_REQUIRE(inst.type == type,
                  "metric '" + name + "' already registered as a different "
                                      "instrument type");
  return inst;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *find_or_create(name, InstrumentType::Counter).counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *find_or_create(name, InstrumentType::Histogram).histogram;
}

std::string MetricsRegistry::render() const {
  core::TextTable t;
  t.set_header({"metric", "type", "value"});
  std::lock_guard lock(mutex_);
  for (const auto& [name, inst] : instruments_) {
    switch (inst.type) {
      case InstrumentType::Counter:
        t.add_row({name, "counter", std::to_string(inst.counter->value())});
        break;
      case InstrumentType::Histogram: {
        const auto s = inst.histogram->summary();
        t.add_row({name, "histogram",
                   "count=" + std::to_string(s.count) +
                       " p50=" + core::fmt_roundtrip(s.p50) +
                       " p95=" + core::fmt_roundtrip(s.p95) +
                       " max=" + core::fmt_roundtrip(s.max)});
        break;
      }
    }
  }
  return t.render();
}

}  // namespace mtsched::obs
