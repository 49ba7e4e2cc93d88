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

TGridEmulator::Replay::Replay(const TGridEmulator& rig, const dag::Dag& g,
                              const sched::Schedule& s)
    : rig_(rig),
      core_(g, s, rig.spec_),
      subnet_(core_.engine(), simcore::replay_tag(simcore::kSubnetJobTag)) {
  // The emulated cluster always spawns containers, even when the machine
  // claims a zero startup: the timer's completion is its own engine event.
  policy_.startup = [this](dag::TaskId t, simcore::CompletionFn done) {
    const int p = static_cast<int>(core_.schedule().placement(t).procs.size());
    auto rng = entity_rng(seed_, Stream::Startup, t);
    core_.engine().submit_timer(rig_.machine_.startup_sample(p, rng),
                                std::move(done),
                                simcore::replay_tag(simcore::kStartupTag, t));
  };
  policy_.execute = [this](dag::TaskId t, simcore::CompletionFn done) {
    const auto& task = core_.dag().task(t);
    const auto& procs = core_.schedule().placement(t).procs;
    auto rng = entity_rng(seed_, Stream::Exec, t);
    // Heterogeneous sets run at the pace of their slowest member.
    const double exec =
        rig_.machine_.exec_time_sample(task.kernel, task.matrix_dim,
                                       static_cast<int>(procs.size()), rng) *
        platform::exec_slowdown(rig_.spec_, procs);
    core_.engine().submit_timer(exec, std::move(done),
                                simcore::replay_tag(simcore::kExecTag, t));
  };
  // Registrations with the single subnet manager serialize in FIFO order.
  policy_.overhead = [this](std::size_t edge, simcore::CompletionFn done) {
    const auto& e = core_.dag().edges()[edge];
    const auto& sched = core_.schedule();
    auto rng = entity_rng(seed_, Stream::Redist, edge);
    subnet_.enqueue(
        rig_.machine_.redist_overhead_sample(
            static_cast<int>(sched.placement(e.src).procs.size()),
            static_cast<int>(sched.placement(e.dst).procs.size()), rng),
        std::move(done));
  };
  policy_.transfer_waits_for_consumer = true;
}

sched::RunTrace& TGridEmulator::Replay::run(std::uint64_t seed) {
  const obs::Span obs_span(obs::current_track(), "tgrid", "execute", [&] {
    return obs::Args{{"tasks", std::to_string(core_.dag().num_tasks())},
                     {"seed", std::to_string(seed)}};
  });
  seed_ = seed;
  subnet_.reset();
  return core_.run(policy_);
}

sched::RunTrace TGridEmulator::run(const dag::Dag& g, const sched::Schedule& s,
                                   std::uint64_t seed) const {
  return std::move(Replay(*this, g, s).run(seed));
}

double TGridEmulator::makespan(const dag::Dag& g, const sched::Schedule& s,
                               std::uint64_t seed) const {
  return Replay(*this, g, s).run(seed).makespan;
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
