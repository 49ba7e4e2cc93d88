// large_dag: HCPA / profile / execute requests for Table-I-shaped DAGs
// (width 8, add ratio 0.5, n = 2000) at three sizes, each through
// Session::run on a fresh Session (so no request is a cache hit) on one
// thread. Allocation dominates; the three sizes expose each layer's
// complexity class. Each size gets the same number of tasks in total —
// four 4k DAGs, two 8k DAGs, one 16k DAG — which evens out how much the
// random structure of any single DAG moves the numbers.
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"

namespace perfbench {

using namespace mtsched;

namespace {

struct Size {
  int tasks;
  int dags;
  const char* label;
};

/// Makespans of the reference request — a DAG of the smallest size
/// generated from kReferenceSeed — as the commit that added this benchmark
/// computes them. Every run checks the program still produces them.
constexpr std::uint64_t kReferenceSeed = 2011;
constexpr struct {
  int tasks;
  double makespan_sim;
  double makespan_exp;
} kReferences[] = {
    {4000, 23039.740939462103, 22866.679597921069},
    {200, 1056.0741544344371, 1051.2569070580953},
};

exp::ScheduleRequest make_request(int tasks, std::uint64_t dag_seed,
                                  std::uint64_t exp_seed) {
  dag::DagGenParams p;
  p.num_tasks = tasks;
  p.width = 8;
  p.add_ratio = 0.5;
  p.matrix_dim = 2000;
  p.seed = dag_seed;
  exp::ScheduleRequest req;
  req.dag_text = dag::to_text(dag::generate_random_dag(p).graph);
  req.algorithm = "HCPA";
  req.model = models::ModelSpec::parse("profile");
  req.exp_seed = exp_seed;
  req.execute = true;
  return req;
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// The request computed through the layer functions: its schedule must
/// validate, and Session::run must later return the same numbers.
bool valid_schedule(const exp::Lab& lab, const exp::ScheduleRequest& req,
                    const LayerResult& r) {
  try {
    sched::validate_schedule(dag::from_text(req.dag_text), r.schedule,
                             lab.spec().num_nodes);
  } catch (const core::Error&) {
    return false;
  }
  return true;
}

bool same(const exp::ScheduleResponse& resp, const LayerResult& r) {
  return resp.ok() && resp.allocation == r.schedule.allocation() &&
         close(resp.est_makespan, r.schedule.est_makespan) &&
         close(resp.makespan_sim, r.makespan_sim) &&
         close(resp.makespan_exp, r.makespan_exp);
}

}  // namespace

void run_large_dag(const Options& opt, Report& report) {
  const std::vector<Size> sizes =
      opt.tiny ? std::vector<Size>{{200, 4, "4k"}, {400, 2, "8k"},
                                   {800, 1, "16k"}}
               : std::vector<Size>{{4000, 4, "4k"}, {8000, 2, "8k"},
                                   {16000, 1, "16k"}};

  std::vector<std::size_t> size_of;  ///< index into `sizes` per request
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    size_of.insert(size_of.end(), static_cast<std::size_t>(sizes[s].dags), s);
  }

  // Set-up: lab construction plus DAG generation. Timed ten times before
  // the window and once more after every pass, so that its median spans
  // the run's changing host conditions.
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto lab = std::make_unique<exp::Lab>();
    std::vector<exp::ScheduleRequest> reqs;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      for (int d = 0; d < sizes[s].dags; ++d) {
        const std::uint64_t stream = 1000 * s + static_cast<std::uint64_t>(d);
        reqs.push_back(make_request(sizes[s].tasks, derive_seed(opt.seed, stream),
                                    derive_seed(opt.seed, stream + 500)));
      }
    }
    setups.push_back(since(t0));
    return std::pair{std::move(lab), std::move(reqs)};
  };
  for (int rep = 0; rep < 9; ++rep) set_up();
  const auto [lab, reqs] = set_up();

  // Warm-up pass, outside the window: every request through the layer
  // functions. Its schedules are validated and are the reference the
  // timed Session::run responses must equal.
  Tracer off(false);
  std::vector<LayerResult> expected;
  bool valid = true;
  for (const exp::ScheduleRequest& req : reqs) {
    expected.push_back(run_layers(*lab, req, off, 0));
    valid = valid && valid_schedule(*lab, req, expected.back());
  }
  report.check(valid, "all " + std::to_string(reqs.size()) +
                          " schedules validate");

  // Measured window: passes over the requests, each on a fresh session.
  // A pass starts only if it is expected to end within the window.
  Tracer tracer(opt.trace);
  std::vector<std::vector<double>> latency;  ///< per pass, per request
  std::vector<double> pass_wall;
  bool matches = true;
  std::vector<double> hit_s, miss_s;
  const auto window = Clock::now();
  do {
    const auto pass0 = Clock::now();
    latency.emplace_back();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const exp::Session session(*lab);
      const auto t0 = Clock::now();
      const exp::ScheduleResponse resp = session.run(reqs[i]);
      latency.back().push_back(since(t0));
      report.count(1, resp.ok() ? 0 : 1);
      matches = matches && same(resp, expected[i]);
      if (opt.trace) {
        // The same request through the layer functions (spans), then
        // again on the warm session: the cache-hit path.
        miss_s.push_back(since(t0));
        run_layers(*lab, reqs[i], tracer, 1 + i);
        const auto h0 = Clock::now();
        session.run(reqs[i]);
        hit_s.push_back(since(h0));
      }
    }
    pass_wall.push_back(since(pass0));
    set_up();
  } while (since(window) + pass_wall.back() <= opt.seconds);
  report.check(matches, "Session::run equals the layer path on all " +
                            std::to_string(pass_wall.size()) + " passes");

  {
    const Size& s = sizes.front();
    const exp::ScheduleResponse ref =
        exp::Session(*lab).run(make_request(s.tasks, kReferenceSeed, 42));
    bool known = false, ok = false;
    for (const auto& r : kReferences) {
      if (r.tasks != s.tasks) continue;
      known = true;
      ok = ref.ok() && close(ref.makespan_sim, r.makespan_sim) &&
           close(ref.makespan_exp, r.makespan_exp);
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "reference %d-task DAG makespans: sim %.17g exp %.17g "
                  "(recorded: %s)",
                  s.tasks, ref.makespan_sim, ref.makespan_exp,
                  known ? "yes" : "no");
    report.check(ok, buf);
  }

  // Quiet repetitions are picked per request (see quiet). run_s is the sum
  // of the requests' quiet medians; the latencies of each size have their
  // median over the quiet repetitions and their tail over all.
  std::vector<std::vector<double>> all_by_size(sizes.size());
  std::vector<std::vector<double>> quiet_by_size(sizes.size());
  double run_s = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::vector<double> reps;
    for (const auto& pass : latency) reps.push_back(pass[i]);
    const std::vector<double> kept = quiet(reps);
    std::vector<double>& all = all_by_size[size_of[i]];
    std::vector<double>& q = quiet_by_size[size_of[i]];
    all.insert(all.end(), reps.begin(), reps.end());
    q.insert(q.end(), kept.begin(), kept.end());
    run_s += median(kept);
  }
  std::vector<Tail> by_size;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    by_size.push_back(timing(all_by_size[s], quiet_by_size[s]));
    report.note(describe(std::string("request ") + sizes[s].label,
                         by_size.back(), 1e3, "ms"));
  }

  if (!opt.trace) {
    const Tail& light = by_size.front();
    const Tail& heavy = by_size.back();
    report.metric("setup_s", median(quiet(setups)), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("jobs_per_s", static_cast<double>(reqs.size()) / run_s,
                  "1/s");
    report.metric("run_s", run_s, "s");
    report.metric("p50_light_ms", light.p50 * 1e3, "ms");
    report.metric("p99_light_ms", light.tail * 1e3, "ms");
    report.metric("p50_heavy_ms", heavy.p50 * 1e3, "ms");
    report.metric("p99_heavy_ms", heavy.tail * 1e3, "ms");
    return;
  }

  // Per-layer numbers: median self time per size, and the growth exponent
  // between the smallest and the largest size.
  const auto self = tracer.self_times();
  const double size_ratio = std::log(static_cast<double>(sizes.back().tasks) /
                                     sizes.front().tasks);
  const auto per_size = [&](const char* span, const std::string& metric,
                            const char* exponent) {
    const std::vector<double>& all = self.at(span);
    std::vector<double> medians;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<double> v;
      for (std::size_t j = 0; j < all.size(); ++j) {
        if (size_of[j % reqs.size()] == s) v.push_back(all[j]);
      }
      medians.push_back(median(v));
      report.metric(metric + "." + sizes[s].label, medians.back(), "s");
    }
    if (exponent != nullptr) {
      report.metric(exponent,
                    std::log(medians.back() / medians.front()) / size_ratio,
                    "exponent");
    }
  };
  per_size("sched.allocate", "sched.allocate_s", "sched.allocate.exp");
  per_size("sched.map", "sched.map_s", nullptr);
  per_size("sim.simulate", "sim.simulate_s", "sim.simulate.exp");
  per_size("tgrid.execute", "tgrid.execute_s", "tgrid.execute.exp");
  per_size("dag.parse", "dag.parse_s", nullptr);
  report.metric("exp.run_hit_us", median(hit_s) * 1e6, "us");
  report.metric("exp.run_miss_us", median(miss_s) * 1e6, "us");
  if (!opt.spans_out.empty()) tracer.write(opt.spans_out);
  report_trace_overhead(report, tracer, 5, [&] {
    run_layers(*lab, reqs.front(), tracer, 0);
  });
}

}  // namespace perfbench
