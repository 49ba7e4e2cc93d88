// Shared pieces of the end-to-end benchmark program: run options, the
// report every workload fills, sample statistics, the in-memory span
// recorder of traced runs, and the schedule -> simulate -> execute
// pipeline composed from each layer's public functions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured window
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  bool tiny = false;      ///< self-test sizes
  std::string spans_out;  ///< where a traced run writes its spans
};

/// Everything one run reports. Checks and notes are printed as they
/// happen; metrics and counts go into the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) const;
  /// Counts operations the workload attempted and how many of them failed.
  void count(std::uint64_t attempted, std::uint64_t failed = 0);

  bool correct() const { return correct_ && checks_ > 0; }
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  int checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// A timing sample summarized as the benchmark reports it: the median
/// plus the highest percentile (at most the 99th) that has at least ten
/// samples beyond it. With twenty samples or fewer no such percentile
/// exceeds the median, and the 90th percentile stands in for it (with ten
/// samples or fewer that is the maximum).
struct Tail {
  std::size_t n = 0;
  std::size_t n_p50 = 0;  ///< samples the median is taken over
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< percentile the tail stands for
};
Tail summarize(std::vector<double> samples);
/// A timing of repeated work: the tail over `all` repetitions, so that a
/// change that makes some of them slow shows, and the median over the
/// `quiet_reps` among them (see quiet).
Tail timing(const std::vector<double>& all,
            const std::vector<double>& quiet_reps);
double median(std::vector<double> samples);
/// "p50 X ms of n=A, p96.7 Y ms of n=B" for notes.
std::string describe(const std::string& label, const Tail& t, double scale,
                     const std::string& unit);

/// The repetitions of a fixed piece of work that the host disturbed
/// least. Hosts of this class share cores with other tenants, who can slow
/// the same work by up to 60 % for seconds at a time. A repetition whose
/// time (or other cost) is within kQuietSlack of the cheapest one counts
/// as quiet; the benchmark's medians are taken over quiet repetitions,
/// its tails over all of them.
std::vector<double> quiet(const std::vector<double>& costs);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// In-memory span recorder for traced runs. Spans nest by call: a span
/// opened while another is open on the same recorder becomes its child.
/// Single-threaded by design: traced runs record spans on one thread.
/// A disabled recorder records nothing and costs one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;  ///< seconds since the recorder's epoch
    double end;
    int parent;  ///< index of the enclosing span, -1 for a root
    std::uint64_t request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Per span name: the self time of every span of that name, in
  /// seconds. Self time is the span's duration minus its children's.
  std::map<std::string, std::vector<double>> self_times() const;

  /// Writes the spans as Chrome trace_event JSON (one lane per request).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What one request yields when composed from the layer functions.
struct LayerResult {
  mtsched::sched::Schedule schedule;
  double makespan_sim = 0.0;
  double makespan_exp = 0.0;
};

/// The miss path of Session::run, composed from outside: dag::from_text,
/// make_allocator(..)->allocate, ListMapper::map, Simulator::makespan and,
/// when the request executes, TGridEmulator::makespan — each inside a span
/// named after its layer ("dag.parse", "sched.allocate", "sched.map",
/// "sim.simulate", "tgrid.execute"). `platform_mapper` selects the
/// platform-aware mapper Session uses; Campaign maps without a platform.
LayerResult run_layers(const mtsched::exp::Lab& lab,
                       const mtsched::exp::ScheduleRequest& req, Tracer& tracer,
                       std::uint64_t request_id, bool platform_mapper = true);

/// Times `replay` with the recorder disabled and enabled, alternating,
/// and reports trace.overhead_frac = min(on) / min(off) - 1 (the fastest
/// repetitions, which the host disturbed least).
template <class Fn>
void report_trace_overhead(Report& report, Tracer& tracer, int reps,
                           Fn&& replay) {
  std::vector<double> off, on;
  for (int r = 0; r < reps; ++r) {
    for (const bool enabled : {false, true}) {
      tracer.set_enabled(enabled);
      const auto t0 = Clock::now();
      replay();
      (enabled ? on : off).push_back(since(t0));
    }
  }
  tracer.set_enabled(true);
  report.metric("trace.overhead_frac",
                *std::min_element(on.begin(), on.end()) /
                        *std::min_element(off.begin(), off.end()) -
                    1.0,
                "ratio");
}

/// Seed derivation shared by the workloads: a distinct stream per use.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

void run_campaign(const Options& opt, Report& report);
void run_large_dag(const Options& opt, Report& report);

/// The daemon layers — rpc codec, transport, service and server, load
/// generator — over loopback at two fixed rates (see daemon.cpp).
void report_serve_layers(const Options& opt, Report& report);

}  // namespace perfbench
