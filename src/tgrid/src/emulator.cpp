#include "mtsched/tgrid/emulator.hpp"

#include <string>
#include <utility>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/platform/topology.hpp"

namespace mtsched::tgrid {

namespace {

/// Noise streams: samples are bound to entities (task/edge ids), not to
/// event order, so the "weather" of a given seed is stable.
enum class Stream : std::uint64_t { Startup = 1, Exec = 2, Redist = 3 };

core::Rng entity_rng(std::uint64_t seed, Stream s, std::uint64_t entity) {
  return core::Rng(
      core::hash_mix(seed, static_cast<std::uint64_t>(s), entity));
}

}  // namespace

TGridEmulator::TGridEmulator(const machine::MachineModel& machine,
                             platform::ClusterSpec spec)
    : machine_(machine), spec_(std::move(spec)) {
  spec_.validate();
  MTSCHED_REQUIRE(spec_.num_nodes == machine_.max_procs(),
                  "platform node count must match the machine model");
}

sched::RunTrace& TGridEmulator::run(simcore::ReplayRunner& runner,
                                   const simcore::ReplayPlan& plan,
                                   std::uint64_t seed) const {
  MTSCHED_REQUIRE(plan.spec() == spec_,
                  "the plan was compiled for another platform than the "
                  "emulator's");
  const obs::Span obs_span(obs::current_track(), "tgrid", "execute", [&] {
    return obs::Args{{"tasks", std::to_string(plan.dag().num_tasks())},
                     {"seed", std::to_string(seed)}};
  });
  // Every hook captures this one frame, so building the policy does not
  // allocate.
  const struct {
    const TGridEmulator& rig;
    simcore::ReplayRunner& runner;
    const simcore::ReplayPlan& plan;
    std::uint64_t seed;
  } f{*this, runner, plan, seed};
  simcore::ReplayPolicy policy;
  // The emulated cluster always spawns containers, even when the machine
  // claims a zero startup: the timer's completion is its own engine event.
  policy.startup = [&f](dag::TaskId t, simcore::CompletionFn done) {
    const int p = static_cast<int>(f.plan.schedule().placement(t).procs.size());
    auto rng = entity_rng(f.seed, Stream::Startup, t);
    f.runner.engine().submit_timer(
        f.rig.machine_.startup_sample(p, rng), std::move(done),
        simcore::replay_tag(simcore::kStartupTag, t));
  };
  policy.execute = [&f](dag::TaskId t, simcore::CompletionFn done) {
    const auto& task = f.plan.dag().task(t);
    const auto& procs = f.plan.schedule().placement(t).procs;
    auto rng = entity_rng(f.seed, Stream::Exec, t);
    // Heterogeneous sets run at the pace of their slowest member.
    const double exec =
        f.rig.machine_.exec_time_sample(task.kernel, task.matrix_dim,
                                        static_cast<int>(procs.size()), rng) *
        platform::exec_slowdown(f.rig.spec_, procs);
    f.runner.engine().submit_timer(exec, std::move(done),
                                   simcore::replay_tag(simcore::kExecTag, t));
  };
  // Registrations with the single subnet manager serialize in FIFO order.
  policy.overhead = [&f](std::size_t edge, simcore::CompletionFn done) {
    const auto& e = f.plan.dag().edges()[edge];
    const auto& sched = f.plan.schedule();
    auto rng = entity_rng(f.seed, Stream::Redist, edge);
    f.runner.fifo().enqueue(
        f.rig.machine_.redist_overhead_sample(
            static_cast<int>(sched.placement(e.src).procs.size()),
            static_cast<int>(sched.placement(e.dst).procs.size()), rng),
        std::move(done));
  };
  policy.transfer_waits_for_consumer = true;
  return runner.run(plan, policy);
}

sched::RunTrace TGridEmulator::run(const dag::Dag& g, const sched::Schedule& s,
                                   std::uint64_t seed) const {
  const simcore::ReplayPlan plan(g, s, spec_);
  // Moved out: the thread's runner keeps no caller's trace.
  return std::move(run(simcore::thread_runner(), plan, seed));
}

double TGridEmulator::makespan(const dag::Dag& g, const sched::Schedule& s,
                               std::uint64_t seed) const {
  const simcore::ReplayPlan plan(g, s, spec_);
  return run(simcore::thread_runner(), plan, seed).makespan;
}

double TGridEmulator::measure_startup(int p, std::uint64_t seed) const {
  MTSCHED_REQUIRE(p >= 1 && p <= spec_.num_nodes, "allocation out of range");
  // A solo no-op application spends exactly its startup phase; no queueing
  // or contention exists in a single-task run.
  auto rng = entity_rng(seed, Stream::Startup, static_cast<std::uint64_t>(p));
  return machine_.startup_sample(p, rng);
}

double TGridEmulator::measure_exec(dag::TaskKernel k, int n, int p,
                                   std::uint64_t seed) const {
  MTSCHED_REQUIRE(p >= 1 && p <= spec_.num_nodes, "allocation out of range");
  auto rng = entity_rng(seed, Stream::Exec,
                        core::hash_mix(static_cast<std::uint64_t>(k),
                                       static_cast<std::uint64_t>(n),
                                       static_cast<std::uint64_t>(p)));
  return machine_.exec_time_sample(k, n, p, rng);
}

double TGridEmulator::measure_redist_overhead(int p_src, int p_dst,
                                              std::uint64_t seed) const {
  MTSCHED_REQUIRE(p_src >= 1 && p_src <= spec_.num_nodes,
                  "source allocation out of range");
  MTSCHED_REQUIRE(p_dst >= 1 && p_dst <= spec_.num_nodes,
                  "destination allocation out of range");
  auto rng = entity_rng(seed, Stream::Redist,
                        core::hash_mix(static_cast<std::uint64_t>(p_src),
                                       static_cast<std::uint64_t>(p_dst)));
  // The mostly-empty matrix's transfer time is negligible by construction;
  // only the registration service and one network round remain. The round
  // may take the worst route on hierarchical platforms.
  return machine_.redist_overhead_sample(p_src, p_dst, rng) +
         spec_.topology().max_route_latency();
}

}  // namespace mtsched::tgrid
