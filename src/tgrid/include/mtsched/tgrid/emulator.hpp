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
// The replay lifecycle is simcore::CompiledReplay's, shared with the
// simulator; this front end supplies the TGrid phase costs. Unlike the
// simulator, a redistribution can only begin once the *destination*
// task's containers are up (its processes must exist to register), which
// is how TGrid actually sequences context-to-context communication.
//
// The paper re-runs every schedule several times (Section VII-A). A
// TGridEmulator::Replay compiles one schedule once — validation,
// adjacency, redistribution usage, engine and subnet-manager wiring — and
// run(seed) then replays one experiment with no steady-state heap
// allocation; only the seed-dependent sampling and the events remain.
// TGridEmulator::run(g, s, seed) is a Replay compiled and run once.
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
#include "mtsched/simcore/fifo.hpp"
#include "mtsched/simcore/replay.hpp"

namespace mtsched::tgrid {

class TGridEmulator {
 public:
  /// `machine` must outlive the emulator; `spec` is the network fabric the
  /// payload transfers run through (node count must match the machine).
  TGridEmulator(const machine::MachineModel& machine,
                platform::ClusterSpec spec);

  /// One schedule compiled for repeated experiments on this emulator.
  /// Not thread-safe; the emulator, `g` and `s` must outlive it.
  class Replay {
   public:
    /// Validates `s` (throws core::InvalidArgument) and compiles it.
    Replay(const TGridEmulator& rig, const dag::Dag& g,
           const sched::Schedule& s);
    Replay(const Replay&) = delete;
    Replay& operator=(const Replay&) = delete;

    /// One experiment; `seed` drives all run-to-run noise. Returns the
    /// measured trace, valid until the next run() (a caller done with the
    /// replay may move it out).
    sched::RunTrace& run(std::uint64_t seed);

   private:
    const TGridEmulator& rig_;
    simcore::CompiledReplay core_;
    simcore::FifoServer subnet_;
    simcore::ReplayPolicy policy_;
    std::uint64_t seed_ = 0;
  };

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
  const machine::MachineModel& machine_model() const { return machine_; }

 private:
  const machine::MachineModel& machine_;
  platform::ClusterSpec spec_;
};

}  // namespace mtsched::tgrid
