// Metrics registry: named counters and histograms.
//
// Instruments are created on first use and live as long as the registry;
// the returned references are stable, so hot paths look an instrument up
// once and then update it lock-free (counters are atomics).
// Histograms keep every sample — exact p50/p95/max summaries matter more
// here than bounded memory, and campaign-scale sample counts are small.
//
// render() is deterministic for deterministic values: instruments print
// in name order (std::map), doubles as shortest round-trip decimals.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mtsched::obs {

/// Monotonically increasing event count. Thread-safe.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

struct HistogramSummary {
  std::size_t count = 0;
  double min = 0.0;
  double p50 = 0.0;  ///< nearest-rank percentile
  double p95 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Sample distribution with exact summaries. Thread-safe.
class Histogram {
 public:
  void observe(double v);
  HistogramSummary summary() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Thread-safe; a name may only be used for one
  /// instrument type (throws core::InvalidArgument otherwise).
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// All instruments as a text table, in name order.
  std::string render() const;

 private:
  enum class InstrumentType { Counter, Histogram };
  struct Instrument {
    InstrumentType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& find_or_create(const std::string& name, InstrumentType type);

  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace mtsched::obs
