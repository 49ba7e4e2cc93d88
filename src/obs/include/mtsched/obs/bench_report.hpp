// Machine-readable benchmark reports: the perf trajectory of the repo.
//
// Every bench binary writes a BENCH_<name>.json next to its stdout
// figures (see bench/bench_util.hpp for the wiring): wall time, campaign
// execution metrics (jobs, memo-cache hits, threads, stage seconds) and
// per-benchmark throughput numbers. CI uploads the files as artifacts;
// trace-diff plus these reports is what turns "as fast as the hardware
// allows" from a slogan into a checkable regression baseline.
//
// Schema (mtsched.bench.v1):
//   {
//     "schema": "mtsched.bench.v1",
//     "name": "micro_sched",
//     "wall_seconds": 1.5,
//     "metrics": { "campaign.jobs": 108, "campaign.cache_hits": 0 },
//     "throughput": [
//       { "name": "BM_Allocation/cpa/10",
//         "seconds_per_iteration": 0.0001,
//         "items_per_second": 1e6 }
//     ]
//   }
// Doubles are shortest round-trip decimals and metrics serialize in name
// order, so equal reports are byte-identical.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace mtsched::obs {

struct BenchReport {
  /// One measured benchmark case (google-benchmark run or equivalent).
  struct Throughput {
    std::string name;
    double seconds_per_iteration = 0.0;
    double items_per_second = 0.0;  ///< 0 when the bench reports none
  };

  std::string name;          ///< bench binary name ("fig1_...", "micro_sched")
  double wall_seconds = 0.0; ///< whole-process wall time
  std::map<std::string, double> metrics;  ///< flat name -> value
  std::vector<Throughput> throughput;

  /// Serializes as schema mtsched.bench.v1 (deterministic byte order).
  std::string to_json() const;

  /// The canonical file name: "BENCH_<name>.json".
  std::string filename() const { return "BENCH_" + name + ".json"; }
};

}  // namespace mtsched::obs
