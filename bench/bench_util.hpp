// Shared helpers for the figure/table reproduction binaries.
//
// Since the campaign runner landed, every suite-running bench is a thin
// renderer: it declares a CampaignSpec, lets exp::Campaign execute it (in
// parallel, with the shared schedule cache), and pivots the records into
// the paper's figures. Figures go to stdout; campaign metrics go to
// stderr so piped output stays clean.
//
// Every bench also writes a machine-readable BENCH_<name>.json perf
// report (obs::BenchReport) via the Reporter declared below — one
// `bench::Reporter report("<name>");` line at the top of main() is the
// whole wiring; run_campaign() feeds it campaign metrics automatically.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "mtsched/core/thread_pool.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/campaign.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/report.hpp"
#include "mtsched/obs/bench_report.hpp"

namespace bench {

/// Experiment seed shared by all figure benches so their "cluster runs"
/// see the same weather.
inline constexpr std::uint64_t kExpSeed = 42;

/// Default suite seed (the paper's Table I grid).
inline constexpr std::uint64_t kSuiteSeed = 2011;

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << std::string(74, '=') << '\n'
            << title << '\n'
            << "reproduces: " << paper_ref << '\n'
            << std::string(74, '=') << "\n\n";
}

/// Worker threads for bench campaigns: MTSCHED_BENCH_THREADS when set,
/// otherwise the hardware concurrency.
inline int bench_threads() {
  if (const char* env = std::getenv("MTSCHED_BENCH_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return mtsched::core::ThreadPool::recommended_threads();
}

/// The paper's standard campaign: Table I suite, HCPA vs MCPA, seed 42 —
/// only the models under study vary per figure.
inline mtsched::exp::CampaignSpec table1_spec(
    const mtsched::exp::Lab& lab,
    const std::vector<mtsched::models::CostModelKind>& kinds) {
  mtsched::exp::CampaignSpec spec;
  spec.models = mtsched::exp::lab_models(lab, kinds);
  spec.exp_seeds = {kExpSeed};
  spec.threads = bench_threads();
  return spec;  // suites/algorithms use the documented defaults
}

/// Collects this process's perf numbers and writes BENCH_<name>.json on
/// destruction. Construct one at the top of main(); it registers itself
/// as the ambient reporter so run_campaign() can feed it without every
/// bench threading a handle through.
///
/// The output directory is MTSCHED_BENCH_REPORT_DIR (default: the
/// current directory); MTSCHED_BENCH_REPORT=0 disables writing.
class Reporter {
 public:
  explicit Reporter(std::string name) : start_(Clock::now()) {
    report_.name = std::move(name);
    current_ = this;
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  ~Reporter() {
    current_ = nullptr;
    report_.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    if (const char* env = std::getenv("MTSCHED_BENCH_REPORT")) {
      if (std::string(env) == "0") return;
    }
    std::string dir = ".";
    if (const char* env = std::getenv("MTSCHED_BENCH_REPORT_DIR")) dir = env;
    const std::string path = dir + "/" + report_.filename();
    std::ofstream f(path, std::ios::binary);
    if (!f) {
      std::cerr << "bench report: cannot write '" << path << "'\n";
      return;
    }
    f << report_.to_json();
    std::cerr << "bench report: " << path << '\n';
  }

  /// Sets (overwrites) one metric.
  void set(const std::string& metric, double value) {
    report_.metrics[metric] = value;
  }

  void add_throughput(mtsched::obs::BenchReport::Throughput t) {
    report_.throughput.push_back(std::move(t));
  }

  /// Accumulates one campaign run's execution metrics; repeated calls
  /// (benches that run several campaigns) sum jobs and stage times.
  void note_campaign(const mtsched::exp::CampaignMetrics& m) {
    ++campaigns_;
    jobs_ += m.jobs;
    hits_ += m.cache_hits;
    misses_ += m.cache_misses;
    run_seconds_ += m.run_seconds;
    set("campaign.count", static_cast<double>(campaigns_));
    set("campaign.jobs", static_cast<double>(jobs_));
    set("campaign.cache_hits", static_cast<double>(hits_));
    set("campaign.cache_misses", static_cast<double>(misses_));
    set("campaign.threads", static_cast<double>(m.threads));
    set("campaign.run_seconds", run_seconds_);
    if (run_seconds_ > 0.0) {
      set("campaign.jobs_per_second",
          static_cast<double>(jobs_) / run_seconds_);
    }
  }

  /// The live reporter of this process, or nullptr.
  static Reporter* current() { return current_; }

 private:
  using Clock = std::chrono::steady_clock;

  static inline Reporter* current_ = nullptr;

  mtsched::obs::BenchReport report_;
  Clock::time_point start_;
  std::size_t campaigns_ = 0;
  std::size_t jobs_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  double run_seconds_ = 0.0;
};

/// Runs `spec`, reports the campaign metrics on stderr, and feeds the
/// ambient bench Reporter (when one exists).
inline mtsched::exp::CampaignResult run_campaign(
    const mtsched::exp::Lab& lab, const mtsched::exp::CampaignSpec& spec) {
  const auto result = mtsched::exp::Campaign(lab.rig()).run(spec);
  std::cerr << result.metrics.describe();
  if (Reporter* r = Reporter::current()) r->note_campaign(result.metrics);
  return result;
}

/// Runs one model's slice of the standard campaign and prints the
/// paper-style relative-makespan figure for one matrix dimension.
inline mtsched::exp::CaseStudyResult run_and_render(
    const mtsched::exp::Lab& lab, mtsched::models::CostModelKind kind,
    int matrix_dim, const std::string& figure_title) {
  const auto campaign = run_campaign(lab, table1_spec(lab, {kind}));
  auto result = campaign.case_study(mtsched::models::kind_name(kind), "HCPA",
                                    "MCPA", kSuiteSeed, kExpSeed);
  const auto subset = result.with_dim(matrix_dim);
  std::cout << mtsched::exp::render_relative_makespan_figure(subset,
                                                             figure_title)
            << '\n';
  return result;
}

}  // namespace bench
