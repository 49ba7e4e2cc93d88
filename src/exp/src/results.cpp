#include "mtsched/exp/results.hpp"

#include <sstream>

#include "mtsched/core/table.hpp"

namespace mtsched::exp {

namespace {

// Shortest round-trip decimals keep the JSON/CSV writers
// thread-count-independent: equal doubles always render to equal bytes.
using core::fmt_roundtrip;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

template <typename T, typename Fn>
void write_json_array(std::ostringstream& os, const std::vector<T>& xs,
                      const Fn& one) {
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ',';
    one(xs[i]);
  }
  os << ']';
}

std::string join_allocation(const std::vector<int>& alloc) {
  std::string s;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    if (i) s += '|';
    s += std::to_string(alloc[i]);
  }
  return s;
}

constexpr const char* kCsvHeader =
    "suite_seed,dag,dim,model,algorithm,exp_seed,run_seed,allocation,"
    "makespan_sim,makespan_exp,sim_error_percent";

}  // namespace

std::string to_json(const CampaignSpec& spec, const CampaignResult& result) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"mtsched.campaign.v1\",\n  \"spec\": {\n";

  // Empty spec fields mean "the documented default"; echo what actually ran.
  os << "    \"suite_seeds\": ";
  if (spec.suites.empty()) {
    os << "[2011]";
  } else {
    write_json_array(os, spec.suites,
                     [&](const SuiteSpec& s) { os << s.seed; });
  }
  os << ",\n    \"algorithms\": ";
  if (spec.algorithms.empty()) {
    os << "[\"HCPA\",\"MCPA\"]";
  } else {
    write_json_array(os, spec.algorithms, [&](const AlgoSpec& a) {
      os << '"' << json_escape(a.label) << '"';
    });
  }
  os << ",\n    \"models\": ";
  write_json_array(os, spec.models, [&](const ModelRef& m) {
    os << '"' << json_escape(m.label) << '"';
  });
  os << ",\n    \"dims\": ";
  write_json_array(os, spec.dims, [&](int d) { os << d; });
  os << ",\n    \"exp_seeds\": ";
  write_json_array(os, spec.exp_seeds, [&](std::uint64_t s) { os << s; });
  os << "\n  },\n";

  os << "  \"jobs\": " << result.metrics.jobs << ",\n";
  os << "  \"cache\": {\"hits\": " << result.metrics.cache_hits
     << ", \"misses\": " << result.metrics.cache_misses << "},\n";

  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const RunRecord& r = result.records[i];
    os << "    {\"suite_seed\": " << r.suite_seed << ", \"dag\": \""
       << json_escape(r.dag) << "\", \"dim\": " << r.matrix_dim
       << ", \"model\": \"" << json_escape(r.model) << "\", \"algorithm\": \""
       << json_escape(r.algorithm) << "\", \"exp_seed\": " << r.exp_seed
       << ", \"run_seed\": " << r.run_seed << ", \"allocation\": ";
    write_json_array(os, r.allocation, [&](int p) { os << p; });
    os << ", \"makespan_sim\": " << fmt_roundtrip(r.makespan_sim)
       << ", \"makespan_exp\": " << fmt_roundtrip(r.makespan_exp)
       << ", \"sim_error_percent\": " << fmt_roundtrip(r.sim_error_percent())
       << '}';
    if (i + 1 < result.records.size()) os << ',';
    os << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string to_csv(const std::vector<RunRecord>& records) {
  std::ostringstream os;
  os << kCsvHeader << '\n';
  for (const RunRecord& r : records) {
    os << r.suite_seed << ',' << r.dag << ',' << r.matrix_dim << ','
       << r.model << ',' << r.algorithm << ',' << r.exp_seed << ','
       << r.run_seed << ',' << join_allocation(r.allocation) << ','
       << fmt_roundtrip(r.makespan_sim) << ',' << fmt_roundtrip(r.makespan_exp)
       << ',' << fmt_roundtrip(r.sim_error_percent()) << '\n';
  }
  return os.str();
}

}  // namespace mtsched::exp
