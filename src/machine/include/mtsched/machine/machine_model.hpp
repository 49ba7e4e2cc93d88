// Ground-truth machine behaviour models.
//
// These models play the role of the *physical cluster* in the paper: they
// define what task executions, task startups and redistribution protocol
// registrations "really" cost, including the effects the paper isolates in
// Section V-C that no analytical model captures:
//   (a) kernel times far from peak and sensitive to p and n in lumpy,
//       hard-to-model ways (JVM/memory-hierarchy effects, load imbalance),
//       with genuine outliers at specific processor counts;
//   (b) expensive task startup (SSH + JVM spawn per processor),
//       non-monotonic in the allocation size;
//   (c) a serialized subnet-manager registration per redistribution whose
//       cost grows mostly with the number of destination processors.
//
// Everything here is *measurable but hidden*: the simulators under study
// may query these models only the way an experimenter could — by running
// calibration jobs (see profiling::Profiler) — never analytically. The
// `mean` accessors exist for the oracle analyses in Figure 2 and for
// tests; cost models must not link against them (enforced by review, the
// models library has no dependency on this one).
#pragma once

#include <cstdint>

#include "mtsched/core/rng.hpp"
#include "mtsched/dag/dag.hpp"

namespace mtsched::machine {

/// Abstract machine behaviour: execution, startup and redistribution
/// protocol costs on a concrete platform.
class MachineModel {
 public:
  virtual ~MachineModel() = default;

  /// Noise-free wall-clock seconds of one kernel execution on p
  /// processors, including the kernel's internal communication.
  virtual double exec_time_mean(dag::TaskKernel k, int n, int p) const = 0;

  /// One sampled execution (multiplicative run-to-run noise).
  double exec_time_sample(dag::TaskKernel k, int n, int p,
                          core::Rng& rng) const;

  /// Noise-free task startup overhead for an allocation of p processors.
  virtual double startup_mean(int p) const = 0;
  /// One sampled startup (multiplicative run-to-run noise).
  double startup_sample(int p, core::Rng& rng) const;

  /// Noise-free redistribution protocol overhead (excludes payload
  /// transfer time, which the execution framework performs for real).
  virtual double redist_overhead_mean(int p_src, int p_dst) const = 0;
  /// One sampled protocol overhead (multiplicative run-to-run noise).
  double redist_overhead_sample(int p_src, int p_dst, core::Rng& rng) const;

  /// Nominal (calibrated) per-node flop rate used by analytical models.
  virtual double nominal_flops() const = 0;

  /// Largest supported allocation (the cluster size).
  virtual int max_procs() const = 0;

  /// Sigma of the multiplicative log-normal run-to-run noise.
  virtual double noise_sigma() const = 0;
};

}  // namespace mtsched::machine
