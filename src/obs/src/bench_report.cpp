#include "mtsched/obs/bench_report.hpp"

#include <sstream>

#include "mtsched/core/table.hpp"
#include "mtsched/obs/json.hpp"

namespace mtsched::obs {

namespace {
constexpr const char* kSchema = "mtsched.bench.v1";
}  // namespace

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"" << kSchema << "\",\n";
  os << "  \"name\": \"" << json::escape(name) << "\",\n";
  os << "  \"wall_seconds\": " << core::fmt_roundtrip(wall_seconds) << ",\n";
  os << "  \"metrics\": {";
  bool first = true;
  for (const auto& [metric, value] : metrics) {
    os << (first ? "\n" : ",\n") << "    \"" << json::escape(metric)
       << "\": " << core::fmt_roundtrip(value);
    first = false;
  }
  os << (first ? "},\n" : "\n  },\n");
  os << "  \"throughput\": [";
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    const Throughput& t = throughput[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json::escape(t.name) << "\", \"seconds_per_iteration\": "
       << core::fmt_roundtrip(t.seconds_per_iteration)
       << ", \"items_per_second\": "
       << core::fmt_roundtrip(t.items_per_second) << '}';
  }
  os << (throughput.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

}  // namespace mtsched::obs
