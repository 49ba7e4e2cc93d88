#include "mtsched/sim/simulator.hpp"

#include <string>
#include <utility>

#include "mtsched/core/error.hpp"
#include "mtsched/simcore/cluster_sim.hpp"
#include "mtsched/simcore/engine.hpp"
#include "mtsched/simcore/replay.hpp"

namespace mtsched::sim {

Simulator::Simulator(const models::CostModel& model, obs::Track trace)
    : model_(model), trace_(trace) {}

sched::RunTrace Simulator::run(const dag::Dag& g,
                               const sched::Schedule& s) const {
  const auto& spec = model_.spec();
  sched::validate_schedule(g, s, spec.num_nodes);

  const obs::Track trk = trace_ ? trace_ : obs::current_track();
  const obs::Span obs_span(trk, "sim", "simulate:" + model_.name(),
                           {{"tasks", std::to_string(g.num_tasks())},
                            {"P", std::to_string(spec.num_nodes)}});

  simcore::Engine engine;
  engine.set_trace(trk);
  simcore::ClusterSim cluster(engine, spec);

  simcore::ReplayPolicy policy;
  policy.startup = [&](dag::TaskId t, simcore::CompletionFn done) {
    const int p = static_cast<int>(s.placement(t).procs.size());
    const double startup = model_.task_sim_cost(g.task(t), p).startup_seconds;
    if (startup > 0.0) {
      engine.submit_timer(startup, std::move(done),
                          "startup_" + g.task(t).name);
    } else {
      done(engine.now());
    }
  };
  policy.execute = [&](dag::TaskId t, simcore::CompletionFn done) {
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
      engine.submit_timer(scaled, std::move(done), g.task(t).name);
    } else {
      simcore::Ptask pt;
      pt.name = g.task(t).name;
      pt.host_of_rank = pl.procs;
      pt.flops = std::move(cost.flops_per_rank);
      pt.flows = std::move(cost.flows);
      MTSCHED_INVARIANT(cost.fixed_seconds == 0.0,
                        "resource-driven task costs must have no fixed part");
      cluster.submit_ptask(pt, std::move(done));
    }
  };
  policy.overhead = [&](std::size_t edge, simcore::CompletionFn done) {
    const auto& e = g.edges()[edge];
    const double overhead = model_.redist_overhead(
        static_cast<int>(s.placement(e.src).procs.size()),
        static_cast<int>(s.placement(e.dst).procs.size()));
    if (overhead > 0.0) {
      engine.submit_timer(overhead, std::move(done), "redist_overhead");
    } else {
      done(engine.now());
    }
  };

  auto trace = simcore::replay(g, s, cluster, policy);
  trk.counter("sim", "makespan_seconds", trace.makespan);
  return trace;
}

double Simulator::makespan(const dag::Dag& g, const sched::Schedule& s) const {
  return run(g, s).makespan;
}

}  // namespace mtsched::sim
