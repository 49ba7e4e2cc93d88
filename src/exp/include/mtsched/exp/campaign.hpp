// The paper's experimental methodology (Section V-A) as a parallel
// campaign runner. For each DAG, each algorithm schedules it under the
// simulator's cost model; the simulator predicts the schedule's makespan
// and the cluster (here: the TGrid emulator) executes the *same*
// schedule. CampaignResult::case_study pivots the records into the
// paper's comparison: relative HCPA-vs-MCPA makespans in simulation vs
// experiment (Figures 1/5/7) and per-run simulation error (Figure 8).
// One DAG is a campaign over a one-DAG suite.
//
// A campaign is a declarative sweep: DAG suites x scheduling algorithms x
// simulator cost models x matrix dimensions x experiment seeds. The runner
// expands the spec into one RunRecord per (suite, dag, model, exp seed,
// algorithm), groups the records into cells — the records of one (suite,
// dag, model, algorithm), which differ only in the experiment seed — and
// executes one core::ThreadPool task per cell. Records come back in *spec
// expansion order*, which makes the output independent of thread
// scheduling.
//
// Determinism is a hard contract: a campaign run with N threads produces
// results byte-identical to the same campaign with one thread. Two
// mechanisms guarantee it:
//   * every record derives its own experiment seed from (campaign exp
//     seed, algorithm slot, dag seed) — no shared RNG, no run-order
//     dependence;
//   * records are pre-labelled at expansion and written into their slots
//     by index, so completion order never shows.
//
// A cell's schedule and simulated makespan do not depend on the
// experiment seed, so the cell task builds one exp::Cell (lab.hpp) — the
// schedule, its replay plan on the rig's platform, and the simulation on
// that plan, or on a plan of its own when the model lives on another
// platform (a speed-blind view of a heterogeneous rig, say) — and then
// runs every experiment seed of the cell on the worker thread's replay
// runner, allocation-free. Building the cell is the cell's schedule
// observation, each seed one execute observation. The metrics keep the
// memo-cache vocabulary: each cell counts one cache miss (the cell it
// built) and one hit per further experiment seed, so the totals are
// exactly what the expansion dictates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/obs/sink.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace mtsched::exp {

/// A labelled cost model under study. The pointee must outlive the
/// campaign run; the label names the model in records and reports.
struct ModelRef {
  std::string label;
  const models::CostModel* model = nullptr;
};

/// ModelRefs for a Lab's built-in simulator versions, labelled with the
/// paper's names ("analytical", "profile", "empirical").
ModelRef lab_model(const Lab& lab, models::CostModelKind kind);
std::vector<ModelRef> lab_models(const Lab& lab,
                                 const std::vector<models::CostModelKind>& kinds);

/// Computes one schedule for `g` under `model`. Implementations must be
/// pure and thread-safe: jobs call them concurrently from pool workers.
using ScheduleFn =
    std::function<sched::Schedule(const dag::Dag& g,
                                  const models::CostModel& model, int P)>;

/// One scheduling algorithm of the sweep.
struct AlgoSpec {
  std::string label;
  ScheduleFn schedule;

  /// Stream id mixed into each job's experiment seed. The default -1
  /// means "use my position in CampaignSpec::algorithms + 1" (first
  /// algorithm -> 1, second -> 2: the two schedules are separate cluster
  /// runs with their own weather). 0 means "use the campaign exp seed
  /// unmixed" — for studies that deliberately execute all variants under
  /// identical weather.
  int seed_slot = -1;

  /// The standard two-step scheduler: `make_allocator(name)` allocation
  /// followed by sched::ListMapper(strategy, model.spec()) mapping, so
  /// the mapper sees the racks of the platform the model lives on.
  /// `label` defaults to `name`.
  static AlgoSpec allocator(
      const std::string& name,
      sched::MappingStrategy strategy = sched::MappingStrategy::EarliestStart,
      std::string label = {});
};

/// A DAG suite plus the identity it is reported under.
struct SuiteSpec {
  std::uint64_t seed = 2011;  ///< provenance recorded in every record
  std::vector<dag::GeneratedDag> dags;

  /// The paper's 54-DAG Table I suite generated from `base_seed`.
  /// `num_tasks` scales every instance (paper value 10); the grid shape
  /// and per-instance seeds are unchanged.
  static SuiteSpec table1(std::uint64_t base_seed = 2011, int num_tasks = 10);
};

/// The declarative sweep. Jobs expand in nesting order
///   suites -> dags -> models -> exp_seeds -> algorithms,
/// which fixes the record order of every run of this spec.
struct CampaignSpec {
  std::vector<SuiteSpec> suites;            ///< default: {table1(2011)}
  std::vector<AlgoSpec> algorithms;         ///< default: {HCPA, MCPA}
  std::vector<ModelRef> models;             ///< required, non-empty
  std::vector<int> dims;                    ///< keep only these n; empty = all
  std::vector<std::uint64_t> exp_seeds{42};

  /// Worker threads of the parallel stage. 0 means "one per hardware
  /// thread" (core::ThreadPool::recommended_threads()); negative values
  /// are clamped to 1.
  int threads = 1;
};

/// Result of one job.
struct RunRecord {
  std::uint64_t suite_seed = 0;
  std::string dag;        ///< instance name (dag::GeneratedDag::name)
  int matrix_dim = 0;
  std::string model;      ///< ModelRef::label
  std::string algorithm;  ///< AlgoSpec::label
  std::uint64_t exp_seed = 0;  ///< campaign-level seed of this cell
  std::uint64_t run_seed = 0;  ///< derived seed the emulator actually saw
  std::vector<int> allocation;
  double makespan_sim = 0.0;
  double makespan_exp = 0.0;

  /// The paper's Figure 8 metric: |exp - sim| / sim, in percent. Relative
  /// to the *simulated* value — analytical simulation underestimates, so
  /// errors can exceed 100 % (the paper's axis reaches 1500 %).
  double sim_error_percent() const;
};

/// Both algorithms of a case study on one DAG.
struct DagOutcome {
  std::string dag_name;
  int matrix_dim = 0;
  RunRecord first;   ///< HCPA in the paper's figures
  RunRecord second;  ///< MCPA

  /// Relative makespan of `first` w.r.t. `second` (negative = first is
  /// faster), as in the paper's bar charts.
  double rel_sim() const { return first.makespan_sim / second.makespan_sim - 1.0; }
  double rel_exp() const { return first.makespan_exp / second.makespan_exp - 1.0; }

  /// True when simulation and experiment disagree about which algorithm
  /// wins (the paper's headline failure mode). Exact ties — identical
  /// schedules — on either side count as agreement.
  bool verdict_flip() const;
};

/// One model's per-DAG comparison of two algorithms, in suite order.
struct CaseStudyResult {
  std::string model_name;
  std::vector<DagOutcome> outcomes;

  int num_flips() const;
  std::vector<const DagOutcome*> with_dim(int matrix_dim) const;

  /// All sim_error_percent values of the given side ("first"/"second").
  std::vector<double> errors_first() const;
  std::vector<double> errors_second() const;
};

/// Execution metrics of one campaign run. Only `jobs`, `cache_hits` and
/// `cache_misses` are deterministic; the wall-clock fields measure this
/// particular run.
struct CampaignMetrics {
  std::size_t jobs = 0;           ///< records
  std::size_t cache_hits = 0;    ///< records that reused their cell's schedule
  std::size_t cache_misses = 0;  ///< schedules actually computed (cells)
  int threads = 1;
  double expand_seconds = 0.0;   ///< spec -> job list
  double run_seconds = 0.0;      ///< wall clock of the parallel stage
  double schedule_seconds = 0.0; ///< CPU seconds in schedule+sim, all workers
  double execute_seconds = 0.0;  ///< CPU seconds in emulator runs, all workers

  /// Human-readable one-paragraph summary (jobs, cache, stage times,
  /// jobs/s throughput).
  std::string describe() const;
};

struct CampaignResult {
  std::vector<RunRecord> records;  ///< spec expansion order
  CampaignMetrics metrics;

  /// Pivots the records of one (model, suite, exp seed) slice into the
  /// figure-oriented CaseStudyResult, pairing `first_algo` vs
  /// `second_algo` per DAG (suite order). Throws core::InvalidArgument
  /// when the slice is missing either algorithm for some DAG.
  CaseStudyResult case_study(const std::string& model_label,
                             const std::string& first_algo,
                             const std::string& second_algo,
                             std::uint64_t suite_seed,
                             std::uint64_t exp_seed) const;

  /// All records of one (model, suite, exp seed) slice, in record order.
  std::vector<const RunRecord*> slice(const std::string& model_label,
                                      std::uint64_t suite_seed,
                                      std::uint64_t exp_seed) const;
};

class Campaign {
 public:
  /// `rig` is the ground-truth cluster every job executes on; it must
  /// outlive the campaign.
  explicit Campaign(const tgrid::TGridEmulator& rig);

  /// Expands and executes `spec`. Empty `suites`/`algorithms` fall back
  /// to the documented defaults; `models` must be non-empty and every
  /// model must live on a platform matching the rig's node count.
  ///
  /// `sink` is the campaign's observation channel (may be null):
  ///   * sink->track() lanes are created at expansion time, one per
  ///     cell ("schedule <dag>/<model>/<algo>") and one per record
  ///     ("job <dag>/<model>/<algo>/s<seed>"), so the trace is
  ///     deterministic across thread counts and run orders;
  ///   * sink->metrics() receives campaign.{jobs_done,cache_hits,
  ///     cache_misses} counters, campaign.schedule_seconds (one
  ///     observation per cell) and campaign.execute_seconds (one per
  ///     record; a cell's replay compile counts toward its first record)
  ///     histograms, and whatever the lower layers report;
  ///   * sink->progress() pulses after every finished record.
  CampaignResult run(const CampaignSpec& spec,
                     obs::Sink* sink = nullptr) const;

 private:
  const tgrid::TGridEmulator& rig_;
};

}  // namespace mtsched::exp
