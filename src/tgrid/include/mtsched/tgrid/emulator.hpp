// TGrid execution-framework emulator (paper Section III).
//
// This module is the reproduction's stand-in for *running the real
// application on the real cluster*. It replays a schedule with the full
// TGrid task lifecycle and all the real-world dynamics the paper
// identifies as missing from analytical simulators:
//
//   * task startup: spawning a JVM + task container on every allocated
//     processor via SSH; the processors are seized for the (sampled)
//     startup duration before any data can arrive (Section V-C b);
//   * subnet-manager registration: before a redistribution may transfer
//     data, the participating processes register with the *single* subnet
//     manager; registrations serialize in FIFO order, so concurrent
//     redistributions queue (Section V-C c) — an emergent effect no cost
//     model in mtsched::models knows about;
//   * real payload transfers through the shared network fabric, with
//     contention between concurrent redistributions;
//   * execution times drawn from the ground-truth machine model, including
//     run-to-run noise and the outliers of Section VII-A.
//
// The replay lifecycle is simcore's, shared with the simulator; this front
// end supplies the TGrid phase costs. Unlike the simulator, a
// redistribution can only begin once the *destination* task's containers
// are up (its processes must exist to register), which is how TGrid
// actually sequences context-to-context communication.
//
// The paper re-runs every schedule several times (Section VII-A).
// run(runner, plan, seed) runs one experiment of a shared
// simcore::ReplayPlan on the caller's runner with no steady-state heap
// allocation; run(g, s, seed) and makespan(g, s, seed) compile a plan and
// run it once on the calling thread's simcore::thread_runner(). The
// emulator holds no mutable state: threads share it, each with a runner.
//
// This module deliberately has no dependency on mtsched::models — the
// world does not know what the simulators believe.
#pragma once

#include <cstdint>

#include "mtsched/dag/dag.hpp"
#include "mtsched/machine/machine_model.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/schedule.hpp"
#include "mtsched/sched/trace.hpp"
#include "mtsched/simcore/replay.hpp"

namespace mtsched::tgrid {

class TGridEmulator {
 public:
  /// `machine` must outlive the emulator; `spec` is the network fabric the
  /// payload transfers run through (node count must match the machine).
  TGridEmulator(const machine::MachineModel& machine,
                platform::ClusterSpec spec);

  /// One experiment of `plan` on `runner`; `seed` drives all run-to-run
  /// noise. Returns the runner's trace, valid until its next run(). Throws
  /// core::InvalidArgument when the plan was compiled for a platform
  /// other than spec().
  sched::RunTrace& run(simcore::ReplayRunner& runner,
                       const simcore::ReplayPlan& plan,
                       std::uint64_t seed) const;

  /// Executes one schedule replay; `seed` drives all run-to-run noise.
  /// Returns the measured trace ("the experiment").
  sched::RunTrace run(const dag::Dag& g, const sched::Schedule& s,
                      std::uint64_t seed) const;

  /// Measured makespan only.
  double makespan(const dag::Dag& g, const sched::Schedule& s,
                  std::uint64_t seed) const;

  // --- Calibration micro-benchmarks (paper Section VI) -------------------
  // These are the measurements an experimenter can take on the cluster;
  // profiling::Profiler uses them to build the refined cost models.

  /// Wall time of an application of one no-op task on p processors: the
  /// measured startup overhead (Section VI-B).
  double measure_startup(int p, std::uint64_t seed) const;

  /// Instrumented compute-phase duration of one task execution
  /// (Section VI-A's brute-force profiles).
  double measure_exec(dag::TaskKernel k, int n, int p,
                      std::uint64_t seed) const;

  /// Duration of a mostly-empty-matrix redistribution between p_src and
  /// p_dst processors, transfer time negligible by construction: the
  /// measured protocol overhead (Section VI-C).
  double measure_redist_overhead(int p_src, int p_dst,
                                 std::uint64_t seed) const;

  const platform::ClusterSpec& spec() const { return spec_; }

 private:
  const machine::MachineModel& machine_;
  platform::ClusterSpec spec_;
};

}  // namespace mtsched::tgrid
