#include "mtsched/sim/simulator.hpp"

#include <string>
#include <utility>

#include "mtsched/core/error.hpp"
#include "mtsched/simcore/replay.hpp"

namespace mtsched::sim {

Simulator::Simulator(const models::CostModel& model, obs::Track trace)
    : model_(model), trace_(trace) {}

sched::RunTrace Simulator::run(const dag::Dag& g,
                               const sched::Schedule& s) const {
  const simcore::ReplayPlan plan(g, s, model_.spec());
  simcore::ReplayRunner runner;
  return std::move(run(runner, plan));
}

sched::RunTrace& Simulator::run(simcore::ReplayRunner& runner,
                                const simcore::ReplayPlan& plan) const {
  const auto& spec = model_.spec();
  MTSCHED_REQUIRE(plan.spec() == spec,
                  "the plan was compiled for another platform than the "
                  "model's");
  const dag::Dag& g = plan.dag();
  const sched::Schedule& s = plan.schedule();

  const obs::Track trk = trace_ ? trace_ : obs::current_track();
  std::string span_name;
  if (trk) span_name = "simulate:" + model_.name();
  const obs::Span obs_span(trk, "sim", span_name, [&] {
    return obs::Args{{"tasks", std::to_string(g.num_tasks())},
                     {"P", std::to_string(spec.num_nodes)}};
  });
  // The engine takes its trace from the ambient context when the run
  // resets it.
  const obs::ScopedContext obs_ctx(trk, obs::current_metrics());

  simcore::ReplayPolicy policy;
  policy.startup = [&](dag::TaskId t, simcore::CompletionFn done) {
    simcore::Engine& engine = runner.engine();
    const int p = static_cast<int>(s.placement(t).procs.size());
    const double startup = model_.task_sim_cost(g.task(t), p).startup_seconds;
    if (startup > 0.0) {
      engine.submit_timer(startup, std::move(done),
                          simcore::replay_tag(simcore::kStartupTag, t));
    } else {
      done(engine.now());
    }
  };
  policy.execute = [&](dag::TaskId t, simcore::CompletionFn done) {
    simcore::Engine& engine = runner.engine();
    const auto& pl = s.placement(t);
    auto cost =
        model_.task_sim_cost(g.task(t), static_cast<int>(pl.procs.size()));
    if (cost.is_fixed()) {
      // Fixed durations were measured/regressed at the reference speed;
      // heterogeneous sets run at the pace of their slowest member. (The
      // analytical branch below needs no correction: per-node cpu
      // resources bound the fluid activity by the slowest member
      // automatically.)
      const double scaled =
          cost.fixed_seconds * platform::exec_slowdown(spec, pl.procs);
      engine.submit_timer(scaled, std::move(done),
                          simcore::replay_tag(simcore::kTaskTag, t));
    } else {
      simcore::Ptask pt;
      pt.host_of_rank = pl.procs;
      pt.flops = std::move(cost.flops_per_rank);
      pt.flows = std::move(cost.flows);
      MTSCHED_INVARIANT(cost.fixed_seconds == 0.0,
                        "resource-driven task costs must have no fixed part");
      runner.cluster().submit_ptask(pt, std::move(done),
                                    simcore::replay_tag(simcore::kTaskTag, t));
    }
  };
  policy.overhead = [&](std::size_t edge, simcore::CompletionFn done) {
    simcore::Engine& engine = runner.engine();
    const auto& e = g.edges()[edge];
    const double overhead = model_.redist_overhead(
        static_cast<int>(s.placement(e.src).procs.size()),
        static_cast<int>(s.placement(e.dst).procs.size()));
    if (overhead > 0.0) {
      engine.submit_timer(overhead, std::move(done),
                          simcore::replay_tag(simcore::kOverheadTag));
    } else {
      done(engine.now());
    }
  };

  sched::RunTrace& trace = runner.run(plan, policy);
  trk.counter("sim", "makespan_seconds", trace.makespan);
  return trace;
}

double Simulator::makespan(const dag::Dag& g, const sched::Schedule& s) const {
  return run(g, s).makespan;
}

}  // namespace mtsched::sim
