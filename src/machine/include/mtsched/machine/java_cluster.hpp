// Behaviour model of the paper's experimental setup: Java/MPIJava matrix
// kernels under TGrid on the 32-node Bayreuth cluster.
//
// The model composes, per kernel execution:
//   * the analytical flop count (2 n^3 for multiplication, n/4 * n^2 for
//     the boosted addition) divided by the nominal 250 MFlop/s rate and
//     the allocation size p;
//   * an *efficiency surface* eff(kernel, n, p) in (0, 1]: a deterministic
//     but lumpy function ("frozen noise") standing in for JIT, memory
//     hierarchy and data-layout effects — the paper's Figure 2 (left)
//     shows analytical prediction errors fluctuating up to ~60 % without a
//     clear pattern, which is exactly 1/eff - 1 for eff down to ~0.6;
//   * explicit outliers at p = 8 (slow local updates, memory hierarchy)
//     and p = 16 (1-D distribution load imbalance) for n = 3000, the two
//     outliers discussed around Figure 6, plus milder ones for n = 2000;
//   * the kernel's internal communication on the 1-D algorithm (p - 1
//     column-block exchanges through the Java socket stack).
//
// Startup and subnet-manager registration follow the shapes of Figures 3
// and 4: startup grows roughly linearly (~0.03 s per process on top of
// ~0.7 s) but not monotonically; registration cost is dominated by the
// destination process count (~8 ms each on top of ~0.1 s).
#pragma once

#include "mtsched/machine/machine_model.hpp"
#include "mtsched/platform/cluster.hpp"

namespace mtsched::machine {

/// Tunables of the Java/TGrid behaviour model. Defaults reproduce the
/// paper's observed magnitudes.
struct JavaClusterConfig {
  int num_nodes = 32;
  double nominal_flops = 250e6;   ///< calibrated Java matmul rate (paper IV)
  double noise_sigma = 0.02;      ///< run-to-run log-normal noise

  // Efficiency surface: eff = eff_base - eff_slope*p + eff_amp * ripple,
  // clamped to [eff_floor, eff_ceil]; ripple is frozen noise in [-1, 1].
  double mm_eff_base = 0.55;
  double mm_eff_slope = 0.005;
  double mm_eff_amp = 0.10;
  double add_eff_base = 0.35;     ///< additions are memory-bound in Java
  double add_eff_slope = 0.003;
  double add_eff_amp = 0.05;
  double eff_floor = 0.30;
  double eff_ceil = 0.90;
  std::uint64_t surface_seed = 0xB4A1EU;  ///< freezes the ripple

  // Outlier slowdown factors (multiply execution time).
  double outlier_p8_n3000 = 1.45;   ///< memory-hierarchy effect
  double outlier_p16_n3000 = 1.35;  ///< 1-D distribution load imbalance
  double outlier_p8_n2000 = 1.12;
  double outlier_p16_n2000 = 1.10;

  // Kernel-internal communication (Java socket stack).
  double java_bandwidth = 70e6;     ///< effective bytes/s
  double java_msg_latency = 1.2e-3; ///< per exchange step, s

  // Per-process synchronization/coordination cost, seconds per allocated
  // processor (zero for p = 1). This term makes over-allocation genuinely
  // expensive: real execution time has a minimum near
  // p* = sqrt(T_seq / sync) and *increases* beyond it — the regime the
  // paper's Table II captures with its linear c*p + d branch: by p = 32
  // the n = 2000 multiplication has saturated (flat/positive slope) while
  // the n = 3000 one is still scaling (negative slope).
  double mm_sync_per_proc = 0.20;
  double add_sync_per_proc = 0.07;

  // Task startup (SSH + JVM + container registration), Figure 3.
  double startup_base = 0.72;
  double startup_per_proc = 0.045;
  double startup_quad = -5.0e-4;    ///< saturation bend
  double startup_wobble = 0.08;     ///< non-monotonic component amplitude

  // Subnet-manager registration overhead, Figure 4.
  double redist_base = 0.095;
  double redist_per_dst = 0.0078;
  double redist_per_src = 0.0006;
  double redist_cross = 4.0e-5;     ///< src*dst interaction
  double redist_wobble = 0.012;
};

class JavaClusterModel final : public MachineModel {
 public:
  explicit JavaClusterModel(JavaClusterConfig cfg = {});

  double exec_time_mean(dag::TaskKernel k, int n, int p) const override;
  double startup_mean(int p) const override;
  double redist_overhead_mean(int p_src, int p_dst) const override;
  double nominal_flops() const override { return cfg_.nominal_flops; }
  int max_procs() const override { return cfg_.num_nodes; }
  double noise_sigma() const override { return cfg_.noise_sigma; }

  /// The efficiency surface itself (exposed for Figure 2 style analyses).
  double efficiency(dag::TaskKernel k, int n, int p) const;

  /// Outlier slowdown factor applied at (n, p); 1.0 almost everywhere.
  double outlier_factor(int n, int p) const;

  /// Kernel-internal communication seconds at (k, n, p).
  double internal_comm_time(dag::TaskKernel k, int n, int p) const;


  /// The matching platform description for the network simulator.
  platform::ClusterSpec platform_spec() const;

 private:
  double ripple(dag::TaskKernel k, int n, int p) const;

  JavaClusterConfig cfg_;
};

}  // namespace mtsched::machine
