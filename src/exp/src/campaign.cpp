#include "mtsched/exp/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/core/thread_pool.hpp"

namespace mtsched::exp {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

ModelRef lab_model(const Lab& lab, models::CostModelKind kind) {
  return ModelRef{models::kind_name(kind), &lab.model(kind)};
}

std::vector<ModelRef> lab_models(
    const Lab& lab, const std::vector<models::CostModelKind>& kinds) {
  std::vector<ModelRef> out;
  out.reserve(kinds.size());
  for (const auto kind : kinds) out.push_back(lab_model(lab, kind));
  return out;
}

AlgoSpec AlgoSpec::allocator(const std::string& name,
                             sched::MappingStrategy strategy,
                             std::string label) {
  // make_allocator validates the name eagerly so a typo fails at spec
  // construction, not inside a pool worker.
  std::shared_ptr<const sched::Allocator> alloc = sched::make_allocator(name);
  AlgoSpec spec;
  spec.label = label.empty() ? name : std::move(label);
  // P is the node count of the model's platform, which the recipe maps on.
  spec.schedule = [alloc, strategy](const dag::Dag& g,
                                    const models::CostModel& model, int) {
    return allocate_and_map(*alloc, strategy, g,
                            models::SchedCostAdapter(model), model.spec());
  };
  return spec;
}

SuiteSpec SuiteSpec::table1(std::uint64_t base_seed, int num_tasks) {
  return SuiteSpec{base_seed, dag::generate_table1_suite(base_seed, num_tasks)};
}

double RunRecord::sim_error_percent() const {
  MTSCHED_REQUIRE(makespan_sim > 0.0, "simulated makespan must be positive");
  return std::abs(makespan_exp - makespan_sim) / makespan_sim * 100.0;
}

bool DagOutcome::verdict_flip() const {
  constexpr double kTie = 1e-9;
  if (std::abs(rel_sim()) < kTie || std::abs(rel_exp()) < kTie) return false;
  return (rel_sim() < 0.0) != (rel_exp() < 0.0);
}

int CaseStudyResult::num_flips() const {
  int n = 0;
  for (const auto& o : outcomes)
    if (o.verdict_flip()) ++n;
  return n;
}

std::vector<const DagOutcome*> CaseStudyResult::with_dim(
    int matrix_dim) const {
  std::vector<const DagOutcome*> out;
  for (const auto& o : outcomes)
    if (o.matrix_dim == matrix_dim) out.push_back(&o);
  return out;
}

std::vector<double> CaseStudyResult::errors_first() const {
  std::vector<double> e;
  e.reserve(outcomes.size());
  for (const auto& o : outcomes) e.push_back(o.first.sim_error_percent());
  return e;
}

std::vector<double> CaseStudyResult::errors_second() const {
  std::vector<double> e;
  e.reserve(outcomes.size());
  for (const auto& o : outcomes) e.push_back(o.second.sim_error_percent());
  return e;
}

std::string CampaignMetrics::describe() const {
  std::ostringstream os;
  os << "campaign: " << jobs << " jobs on " << threads << " thread"
     << (threads == 1 ? "" : "s") << "; schedule cache " << cache_hits
     << " hits / " << cache_misses << " misses\n";
  os << "  expand " << expand_seconds << " s, run " << run_seconds
     << " s wall";
  if (run_seconds > 0.0) {
    os << " (" << static_cast<double>(jobs) / run_seconds << " jobs/s)";
  }
  os << "\n  worker time: schedule+simulate " << schedule_seconds
     << " s, emulated execution " << execute_seconds << " s\n";
  return os.str();
}

std::vector<const RunRecord*> CampaignResult::slice(
    const std::string& model_label, std::uint64_t suite_seed,
    std::uint64_t exp_seed) const {
  std::vector<const RunRecord*> out;
  for (const auto& r : records) {
    if (r.model == model_label && r.suite_seed == suite_seed &&
        r.exp_seed == exp_seed) {
      out.push_back(&r);
    }
  }
  return out;
}

CaseStudyResult CampaignResult::case_study(const std::string& model_label,
                                           const std::string& first_algo,
                                           const std::string& second_algo,
                                           std::uint64_t suite_seed,
                                           std::uint64_t exp_seed) const {
  // Group the slice per DAG, keeping suite order (records are already in
  // expansion order, so the first sighting of a DAG fixes its position).
  std::vector<std::string> dag_order;
  std::map<std::string, std::pair<const RunRecord*, const RunRecord*>> by_dag;
  for (const auto* r : slice(model_label, suite_seed, exp_seed)) {
    const bool is_first = r->algorithm == first_algo;
    const bool is_second = r->algorithm == second_algo;
    if (!is_first && !is_second) continue;
    auto [it, inserted] = by_dag.try_emplace(r->dag, nullptr, nullptr);
    if (inserted) dag_order.push_back(r->dag);
    (is_first ? it->second.first : it->second.second) = r;
  }
  MTSCHED_REQUIRE(!dag_order.empty(),
                  "campaign has no records for model '" + model_label +
                      "', suite seed " + std::to_string(suite_seed) +
                      ", exp seed " + std::to_string(exp_seed));

  CaseStudyResult result;
  result.model_name = model_label;
  result.outcomes.reserve(dag_order.size());
  for (const auto& dag_name : dag_order) {
    const auto& [first, second] = by_dag.at(dag_name);
    MTSCHED_REQUIRE(first != nullptr && second != nullptr,
                    "DAG '" + dag_name + "' is missing algorithm '" +
                        (first ? second_algo : first_algo) +
                        "' in this campaign slice");
    DagOutcome o;
    o.dag_name = dag_name;
    o.matrix_dim = first->matrix_dim;
    o.first = *first;
    o.second = *second;
    result.outcomes.push_back(std::move(o));
  }
  return result;
}

Campaign::Campaign(const tgrid::TGridEmulator& rig) : rig_(rig) {}

CampaignResult Campaign::run(const CampaignSpec& spec,
                             obs::Sink* sink) const {
  const auto expand_start = Clock::now();

  // Resolve defaults without copying user-provided suites.
  std::vector<SuiteSpec> default_suites;
  const std::vector<SuiteSpec>* suites = &spec.suites;
  if (suites->empty()) {
    default_suites.push_back(SuiteSpec::table1());
    suites = &default_suites;
  }
  std::vector<AlgoSpec> default_algos;
  const std::vector<AlgoSpec>* algos = &spec.algorithms;
  if (algos->empty()) {
    default_algos.push_back(AlgoSpec::allocator("HCPA"));
    default_algos.push_back(AlgoSpec::allocator("MCPA"));
    algos = &default_algos;
  }

  MTSCHED_REQUIRE(!spec.models.empty(), "campaign needs at least one model");
  MTSCHED_REQUIRE(!spec.exp_seeds.empty(),
                  "campaign needs at least one experiment seed");
  const int P = rig_.spec().num_nodes;
  {
    std::set<std::string> labels;
    for (const auto& m : spec.models) {
      MTSCHED_REQUIRE(m.model != nullptr,
                      "model '" + m.label + "' has a null pointer");
      MTSCHED_REQUIRE(m.model->spec().num_nodes == P,
                      "model '" + m.label +
                          "' lives on a platform of different size than "
                          "the experiment rig");
      MTSCHED_REQUIRE(labels.insert(m.label).second,
                      "duplicate model label '" + m.label + "'");
    }
    labels.clear();
    for (const auto& a : *algos) {
      MTSCHED_REQUIRE(a.schedule != nullptr,
                      "algorithm '" + a.label + "' has no schedule function");
      MTSCHED_REQUIRE(labels.insert(a.label).second,
                      "duplicate algorithm label '" + a.label + "'");
    }
  }

  // Expansion: one record per (suite, dag, model, exp seed, algorithm),
  // dims filter applied, grouped into cells — the records sharing a
  // (suite, dag, model, algorithm), which differ only in the experiment
  // seed. Records are fully pre-labelled here; cell jobs only fill in the
  // computed fields.
  struct Run {
    std::uint64_t run_seed = 0;
    std::size_t record_idx = 0;
    obs::Track track;  ///< emulated execution events of this record
  };
  struct CellJob {
    const dag::GeneratedDag* dag = nullptr;
    const models::CostModel* model = nullptr;
    const ScheduleFn* schedule = nullptr;
    obs::Track track;       ///< schedule+sim events of this cell
    std::vector<Run> runs;  ///< expansion order
  };

  // Trace lanes are created here, during the (serial, deterministic)
  // expansion: the lane set and its order depend only on the spec, never
  // on which worker later runs a cell.
  obs::MetricsRegistry* mreg = sink != nullptr ? sink->metrics() : nullptr;

  CampaignResult result;
  std::vector<CellJob> cells;
  std::unordered_map<std::size_t, std::size_t> cell_of_key;
  const std::size_t n_models = spec.models.size();
  const std::size_t n_algos = algos->size();
  std::size_t suite_base = 0;  // global dag index offset of the suite
  for (std::size_t si = 0; si < suites->size(); ++si) {
    const auto& suite = (*suites)[si];
    for (std::size_t di = 0; di < suite.dags.size(); ++di) {
      const auto& inst = suite.dags[di];
      if (!spec.dims.empty() &&
          std::find(spec.dims.begin(), spec.dims.end(),
                    inst.params.matrix_dim) == spec.dims.end()) {
        continue;
      }
      for (std::size_t mi = 0; mi < n_models; ++mi) {
        for (const auto exp_seed : spec.exp_seeds) {
          for (std::size_t ai = 0; ai < n_algos; ++ai) {
            const auto& algo = (*algos)[ai];
            const int slot =
                algo.seed_slot >= 0 ? algo.seed_slot : static_cast<int>(ai) + 1;
            RunRecord rec;
            rec.suite_seed = suite.seed;
            rec.dag = inst.name;
            rec.matrix_dim = inst.params.matrix_dim;
            rec.model = spec.models[mi].label;
            rec.algorithm = algo.label;
            rec.exp_seed = exp_seed;
            rec.run_seed =
                slot == 0 ? exp_seed
                          : core::hash_mix(exp_seed,
                                           static_cast<std::uint64_t>(slot),
                                           inst.params.seed);
            const std::size_t key =
                ((suite_base + di) * n_models + mi) * n_algos + ai;
            const auto [it, inserted] =
                cell_of_key.try_emplace(key, cells.size());
            const std::string label =
                sink != nullptr
                    ? inst.name + "/" + rec.model + "/" + rec.algorithm
                    : std::string();
            if (inserted) {
              CellJob cell;
              cell.dag = &inst;
              cell.model = spec.models[mi].model;
              cell.schedule = &algo.schedule;
              if (sink != nullptr) {
                cell.track = sink->track("schedule " + label);
              }
              cells.push_back(std::move(cell));
            }
            Run run;
            run.run_seed = rec.run_seed;
            run.record_idx = result.records.size();
            if (sink != nullptr) {
              run.track = sink->track("job " + label + "/s" +
                                      std::to_string(exp_seed));
            }
            cells[it->second].runs.push_back(run);
            result.records.push_back(std::move(rec));
          }
        }
      }
    }
    suite_base += suite.dags.size();
  }

  result.metrics.jobs = result.records.size();
  result.metrics.threads = spec.threads == 0
                               ? core::ThreadPool::recommended_threads()
                               : std::max(1, spec.threads);
  result.metrics.expand_seconds = seconds_since(expand_start);

  // Campaign-level instruments. Counter totals are deterministic; the
  // stage-time histograms measure this particular run.
  obs::Counter* jobs_ctr =
      mreg != nullptr ? &mreg->counter("campaign.jobs_done") : nullptr;
  obs::Counter* hits_ctr =
      mreg != nullptr ? &mreg->counter("campaign.cache_hits") : nullptr;
  obs::Counter* misses_ctr =
      mreg != nullptr ? &mreg->counter("campaign.cache_misses") : nullptr;
  obs::Histogram* sched_hist =
      mreg != nullptr ? &mreg->histogram("campaign.schedule_seconds") : nullptr;
  obs::Histogram* exec_hist =
      mreg != nullptr ? &mreg->histogram("campaign.execute_seconds") : nullptr;

  // Parallel stage: one pool task per cell. It builds the cell once (the
  // cache miss: schedule, plan on the rig's platform, simulation), then
  // runs every experiment seed of the cell on the worker's runner (the
  // cache hits). Hit/miss totals are what the expansion dictates: one
  // miss per cell, one hit per further record.
  const auto run_start = Clock::now();
  std::mutex state_mutex;  // metric accumulation, progress
  std::size_t jobs_done = 0;

  const auto run_cell = [&](std::size_t ci) {
    const CellJob& job = cells[ci];
    const dag::Dag& g = job.dag->graph;
    const auto t0 = Clock::now();
    const obs::ScopedContext cell_ctx(job.track, mreg);
    const Cell cell(g, (*job.schedule)(g, *job.model, P), *job.model, rig_);
    const double schedule_seconds = seconds_since(t0);
    if (sched_hist != nullptr) sched_hist->observe(schedule_seconds);
    const std::vector<int> allocation = cell.schedule.allocation();
    for (std::size_t k = 0; k < job.runs.size(); ++k) {
      const Run& run = job.runs[k];
      const auto t1 = Clock::now();
      double makespan_exp = 0.0;
      {
        const obs::ScopedContext obs_ctx(run.track, mreg);
        makespan_exp =
            rig_.run(thread_runner(), cell.plan, run.run_seed).makespan;
      }
      const double execute_seconds = seconds_since(t1);
      if (exec_hist != nullptr) exec_hist->observe(execute_seconds);

      RunRecord& rec = result.records[run.record_idx];
      rec.allocation = allocation;
      rec.makespan_sim = cell.makespan_sim;
      rec.makespan_exp = makespan_exp;

      const bool hit = k > 0;
      obs::Counter* cache_ctr = hit ? hits_ctr : misses_ctr;
      if (cache_ctr != nullptr) cache_ctr->add();
      if (jobs_ctr != nullptr) jobs_ctr->add();
      std::unique_lock lock(state_mutex);
      ++(hit ? result.metrics.cache_hits : result.metrics.cache_misses);
      if (!hit) result.metrics.schedule_seconds += schedule_seconds;
      result.metrics.execute_seconds += execute_seconds;
      ++jobs_done;
      if (sink != nullptr) {
        obs::Progress pulse;
        pulse.done = jobs_done;
        pulse.total = result.records.size();
        pulse.elapsed_seconds = seconds_since(run_start);
        sink->progress(pulse);
      }
    }
  };

  core::ThreadPool pool(result.metrics.threads);
  core::parallel_for(pool, cells.size(), run_cell);

  result.metrics.run_seconds = seconds_since(run_start);
  return result;
}

}  // namespace mtsched::exp
