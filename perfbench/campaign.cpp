// campaign: the paper's experiment scaled up — Table I suites (10-task
// DAGs, 54 per suite, suite 2011 among them) x {analytical, profile,
// empirical} x {HCPA, MCPA} x several experiment seeds through
// exp::Campaign on one worker per hardware thread. Each schedule is
// computed once and reused for every experiment seed, so most of the time
// goes to emulated execution, the cache-hit path and the thread pool.
#include <memory>

#include "common.hpp"
#include "mtsched/core/thread_pool.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/exp/campaign.hpp"

namespace perfbench {

using namespace mtsched;

namespace {

/// HCPA-vs-MCPA verdict flips of the suite-2011 / exp-seed-42 slice per
/// model: the EXPERIMENTS.md headline (21+9, 1+1, 0+5).
constexpr struct {
  const char* model;
  int flips;
} kPaperFlips[] = {{"analytical", 30}, {"profile", 2}, {"empirical", 5}};

/// FNV-1a over every field of every record, doubles by bit pattern.
std::uint64_t digest(const exp::CampaignResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const exp::RunRecord& r : result.records) {
    mix(&r.suite_seed, sizeof r.suite_seed);
    mix(r.dag.data(), r.dag.size());
    mix(&r.matrix_dim, sizeof r.matrix_dim);
    mix(r.model.data(), r.model.size());
    mix(r.algorithm.data(), r.algorithm.size());
    mix(&r.exp_seed, sizeof r.exp_seed);
    mix(&r.run_seed, sizeof r.run_seed);
    mix(r.allocation.data(), r.allocation.size() * sizeof(int));
    mix(&r.makespan_sim, sizeof r.makespan_sim);
    mix(&r.makespan_exp, sizeof r.makespan_exp);
  }
  return h;
}

/// The specs a run alternates between: the paper's experiment (suite 2011,
/// exp seed 42) on one thread and on all threads, and the full sweep.
struct Specs {
  exp::CampaignSpec paper_1;
  exp::CampaignSpec paper_n;
  exp::CampaignSpec sweep;
};

Specs make_specs(const exp::Lab& lab, const Options& opt, int threads) {
  Specs s;
  const auto models = exp::lab_models(lab, models::all_kinds());
  const std::vector<exp::AlgoSpec> algos = {exp::AlgoSpec::allocator("HCPA"),
                                            exp::AlgoSpec::allocator("MCPA")};
  s.paper_n.suites = {exp::SuiteSpec::table1(2011)};
  s.paper_n.models = models;
  s.paper_n.algorithms = algos;
  s.paper_n.exp_seeds = {42};
  s.paper_n.threads = threads;
  s.paper_1 = s.paper_n;
  s.paper_1.threads = 1;

  const int extra_suites = opt.tiny ? 1 : 2;
  const int exp_seeds = opt.tiny ? 2 : 8;
  s.sweep = s.paper_n;
  for (int i = 0; i < extra_suites; ++i) {
    s.sweep.suites.push_back(exp::SuiteSpec::table1(
        derive_seed(opt.seed, 100 + static_cast<std::uint64_t>(i)) % 1000000));
  }
  for (int i = 1; i < exp_seeds; ++i) {
    s.sweep.exp_seeds.push_back(
        derive_seed(opt.seed, 200 + static_cast<std::uint64_t>(i)) % 1000000);
  }
  return s;
}

/// The per-call self time of the layer spans of the re-issued cells.
void report_small_layers(Report& report, const Tracer& tracer) {
  const auto self = tracer.self_times();
  const auto us = [&](const char* span) {
    return summarize(self.at(span)).p50 * 1e6;
  };
  const Tail allocate = summarize(self.at("sched.allocate"));
  report.metric("dag.parse_us", us("dag.parse"), "us");
  report.metric("sched.allocate_us.p50", allocate.p50 * 1e6, "us");
  report.metric("sched.allocate_us.p99", allocate.tail * 1e6, "us");
  report.metric("sched.map_us", us("sched.map"), "us");
  report.metric("sim.simulate_us", us("sim.simulate"), "us");
  report.metric("tgrid.execute_us", us("tgrid.execute"), "us");
}

}  // namespace

void run_campaign(const Options& opt, Report& report) {
  const int threads = core::ThreadPool::recommended_threads();

  // Set-up: lab construction plus suite generation. Timed twenty times
  // before the window and once more after every sweep, so that its median
  // spans the run's changing host conditions.
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto lab = std::make_unique<exp::Lab>();
    Specs specs = make_specs(*lab, opt, threads);
    setups.push_back(since(t0));
    return std::pair{std::move(lab), std::move(specs)};
  };
  for (int rep = 0; rep < 19; ++rep) set_up();
  const auto [lab, specs] = set_up();
  const exp::Campaign campaign(lab->rig());

  // Measured window: one sweep, then kPaperPerSweep paper experiments on
  // one thread and twice as many on all threads, repeated.
  constexpr int kPaperPerSweep = 2;
  std::vector<double> sweep_wall, paper_1, paper_n;
  std::vector<exp::CampaignMetrics> sweep_metrics;
  std::uint64_t sweep_digest = 0, paper_digest = 0;
  bool repeatable = true;
  exp::CampaignResult paper;
  std::size_t sweep_jobs = 0;
  const auto run = [&](const exp::CampaignSpec& spec, std::uint64_t& want,
                       std::vector<double>& wall) {
    const auto t0 = Clock::now();
    exp::CampaignResult result = campaign.run(spec);
    wall.push_back(since(t0));
    report.count(result.records.size());
    const std::uint64_t d = digest(result);
    if (want == 0) want = d;
    repeatable = repeatable && d == want;
    return result;
  };
  const auto window = Clock::now();
  do {
    const exp::CampaignResult r = run(specs.sweep, sweep_digest, sweep_wall);
    sweep_jobs = r.records.size();
    sweep_metrics.push_back(r.metrics);
    set_up();
    for (int i = 0; i < kPaperPerSweep; ++i) {
      run(specs.paper_1, paper_digest, paper_1);
      for (int j = 0; j < 2; ++j) {
        exp::CampaignResult p = run(specs.paper_n, paper_digest, paper_n);
        if (paper.records.empty()) paper = std::move(p);
      }
    }
  } while (since(window) < opt.seconds);

  for (const auto& want : kPaperFlips) {
    const int flips =
        paper.case_study(want.model, "HCPA", "MCPA", 2011, 42).num_flips();
    report.check(flips == want.flips,
                 std::string(want.model) + " flips " + std::to_string(flips) +
                     " of 54 (expected " + std::to_string(want.flips) + ")");
  }
  report.check(repeatable, "records identical by digest across " +
                               std::to_string(sweep_wall.size()) +
                               " sweeps and " +
                               std::to_string(paper_1.size() + paper_n.size()) +
                               " paper experiments");

  // Medians over the quiet repetitions of each campaign, tails over all.
  const Tail light = timing(paper_1, quiet(paper_1));
  const Tail heavy = timing(paper_n, quiet(paper_n));
  const Tail sweep = timing(sweep_wall, quiet(sweep_wall));
  report.note(describe("paper experiment, 1 thread", light, 1e3, "ms"));
  report.note(describe("paper experiment, " + std::to_string(threads) +
                           " threads",
                       heavy, 1e3, "ms"));
  report.note(describe("sweep of " + std::to_string(sweep_jobs) + " jobs",
                       sweep, 1e3, "ms"));

  if (!opt.trace) {
    report.metric("setup_s", median(quiet(setups)), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("jobs_per_s", static_cast<double>(sweep_jobs) / sweep.p50,
                  "1/s");
    report.metric("run_s", sweep.p50, "s");
    report.metric("p50_light_ms", light.p50 * 1e3, "ms");
    report.metric("p99_light_ms", light.tail * 1e3, "ms");
    report.metric("p50_heavy_ms", heavy.p50 * 1e3, "ms");
    report.metric("p99_heavy_ms", heavy.tail * 1e3, "ms");
    return;
  }

  // Campaign and thread-pool counters of the sweeps.
  std::vector<double> sched_cpu, exec_cpu, busy;
  for (const exp::CampaignMetrics& m : sweep_metrics) {
    sched_cpu.push_back(m.schedule_seconds);
    exec_cpu.push_back(m.execute_seconds);
    busy.push_back((m.schedule_seconds + m.execute_seconds) /
                   (m.run_seconds * m.threads));
  }
  const exp::CampaignMetrics& m = sweep_metrics.front();
  report.metric("campaign.schedule_cpu_s", median(sched_cpu), "s");
  report.metric("campaign.execute_cpu_s", median(exec_cpu), "s");
  report.metric("campaign.busy_frac", median(busy), "ratio");
  report.metric("exp.cache_hits", static_cast<double>(m.cache_hits), "count");
  report.metric("exp.cache_misses", static_cast<double>(m.cache_misses),
                "count");
  report.metric("exp.cache_hit_ratio",
                static_cast<double>(m.cache_hits) /
                    static_cast<double>(m.cache_hits + m.cache_misses),
                "ratio");

  // Campaign internals cannot be wrapped from outside, so a sample of the
  // paper experiment's cells is re-issued through the layer functions
  // (with spans) and through a Session (miss, then hit).
  std::vector<exp::ScheduleRequest> sample;
  std::vector<const exp::RunRecord*> sample_records;
  const auto& suite = specs.paper_n.suites.front().dags;
  for (std::size_t i = 0; i < paper.records.size(); i += 3) {
    const exp::RunRecord& r = paper.records[i];
    exp::ScheduleRequest req;
    for (const auto& d : suite) {
      if (d.name == r.dag) req.dag_text = dag::to_text(d.graph);
    }
    req.algorithm = r.algorithm;
    req.model = models::ModelSpec::parse(r.model);
    req.exp_seed = r.run_seed;
    sample.push_back(std::move(req));
    sample_records.push_back(&r);
  }
  Tracer tracer(true);
  bool replay_matches = true;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const LayerResult r = run_layers(*lab, sample[i], tracer, 1 + i, false);
    replay_matches = replay_matches &&
                     r.makespan_sim == sample_records[i]->makespan_sim &&
                     r.makespan_exp == sample_records[i]->makespan_exp;
  }
  report.check(replay_matches, std::to_string(sample.size()) +
                                   " cells re-issued through the layer "
                                   "functions match the campaign records");
  report_small_layers(report, tracer);
  if (!opt.spans_out.empty()) tracer.write(opt.spans_out);

  const exp::Session session(*lab);
  std::vector<double> miss_s, hit_s;
  for (const exp::ScheduleRequest& req : sample) {
    for (std::vector<double>* out : {&miss_s, &hit_s}) {
      const auto t0 = Clock::now();
      session.run(req);
      out->push_back(since(t0));
    }
  }
  report.metric("exp.run_hit_us", median(hit_s) * 1e6, "us");
  report.metric("exp.run_miss_us", median(miss_s) * 1e6, "us");

  report_trace_overhead(report, tracer, 20, [&] {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      run_layers(*lab, sample[i], tracer, 1 + i, false);
    }
  });

  report_serve_layers(opt, report);
}

}  // namespace perfbench
