#include "mtsched/machine/java_cluster.hpp"

#include <algorithm>
#include <cmath>

#include "mtsched/core/error.hpp"
#include "mtsched/core/units.hpp"

namespace mtsched::machine {

JavaClusterModel::JavaClusterModel(JavaClusterConfig cfg) : cfg_(cfg) {
  MTSCHED_REQUIRE(cfg_.num_nodes >= 1, "cluster needs at least one node");
  MTSCHED_REQUIRE(cfg_.nominal_flops > 0.0, "nominal flop rate must be > 0");
  MTSCHED_REQUIRE(cfg_.noise_sigma >= 0.0, "noise sigma must be >= 0");
  MTSCHED_REQUIRE(cfg_.eff_floor > 0.0 && cfg_.eff_floor <= cfg_.eff_ceil,
                  "efficiency bounds must satisfy 0 < floor <= ceil");
}

double JavaClusterModel::ripple(dag::TaskKernel k, int n, int p) const {
  // Frozen noise: three incommensurate sinusoids whose phases derive from
  // the surface seed, the kernel and n. Deterministic, lumpy, pattern-free
  // to a curve fitter — the paper's "fluctuates without clear patterns".
  const auto kk = static_cast<std::uint64_t>(k);
  const double ph1 =
      core::unit_hash(cfg_.surface_seed, kk, static_cast<std::uint64_t>(n)) *
      2.0 * M_PI;
  const double ph2 = core::unit_hash(cfg_.surface_seed + 1, kk,
                                     static_cast<std::uint64_t>(n)) *
                     2.0 * M_PI;
  const double ph3 = core::unit_hash(cfg_.surface_seed + 2, kk,
                                     static_cast<std::uint64_t>(n)) *
                     2.0 * M_PI;
  const double x = static_cast<double>(p);
  const double s = 0.50 * std::sin(0.9 * x + ph1) +
                   0.35 * std::sin(2.3 * x + ph2) +
                   0.15 * std::sin(5.1 * x + ph3);
  return s;  // in [-1, 1]
}

double JavaClusterModel::efficiency(dag::TaskKernel k, int n, int p) const {
  MTSCHED_REQUIRE(n > 0, "matrix dimension must be positive");
  MTSCHED_REQUIRE(p >= 1 && p <= cfg_.num_nodes, "allocation out of range");
  double base, slope, amp;
  if (k == dag::TaskKernel::MatMul) {
    base = cfg_.mm_eff_base;
    slope = cfg_.mm_eff_slope;
    amp = cfg_.mm_eff_amp;
  } else {
    base = cfg_.add_eff_base;
    slope = cfg_.add_eff_slope;
    amp = cfg_.add_eff_amp;
  }
  const double e = base - slope * static_cast<double>(p) + amp * ripple(k, n, p);
  return std::clamp(e, cfg_.eff_floor, cfg_.eff_ceil);
}

double JavaClusterModel::outlier_factor(int n, int p) const {
  if (n >= 2500) {
    if (p == 8) return cfg_.outlier_p8_n3000;
    if (p == 16) return cfg_.outlier_p16_n3000;
  } else {
    if (p == 8) return cfg_.outlier_p8_n2000;
    if (p == 16) return cfg_.outlier_p16_n2000;
  }
  return 1.0;
}

double JavaClusterModel::internal_comm_time(dag::TaskKernel k, int n,
                                            int p) const {
  if (k != dag::TaskKernel::MatMul || p <= 1) return 0.0;
  // 1-D algorithm: p - 1 exchange steps, each moving a local column block
  // (n^2/p elements) through the Java socket stack.
  const double step_bytes =
      static_cast<double>(n) * static_cast<double>(n) /
      static_cast<double>(p) * core::kElemBytes;
  return static_cast<double>(p - 1) *
         (step_bytes / cfg_.java_bandwidth + cfg_.java_msg_latency);
}

double JavaClusterModel::exec_time_mean(dag::TaskKernel k, int n,
                                        int p) const {
  MTSCHED_REQUIRE(p >= 1 && p <= cfg_.num_nodes, "allocation out of range");
  const double flops = dag::kernel_flops(k, n) / static_cast<double>(p);
  const double compute =
      flops / (cfg_.nominal_flops * efficiency(k, n, p)) * outlier_factor(n, p);
  const double sync = (k == dag::TaskKernel::MatMul ? cfg_.mm_sync_per_proc
                                                    : cfg_.add_sync_per_proc) *
                      static_cast<double>(p > 1 ? p : 0);
  return compute + internal_comm_time(k, n, p) + sync;
}

double JavaClusterModel::startup_mean(int p) const {
  MTSCHED_REQUIRE(p >= 1 && p <= cfg_.num_nodes, "allocation out of range");
  const double x = static_cast<double>(p);
  const double wobble =
      cfg_.startup_wobble *
      std::sin(1.7 * x + core::unit_hash(cfg_.surface_seed, 77) * 2.0 * M_PI);
  const double t = cfg_.startup_base + cfg_.startup_per_proc * x +
                   cfg_.startup_quad * x * x + wobble;
  return std::max(t, 0.05);
}

double JavaClusterModel::redist_overhead_mean(int p_src, int p_dst) const {
  MTSCHED_REQUIRE(p_src >= 1 && p_src <= cfg_.num_nodes,
                  "source allocation out of range");
  MTSCHED_REQUIRE(p_dst >= 1 && p_dst <= cfg_.num_nodes,
                  "destination allocation out of range");
  const double s = static_cast<double>(p_src);
  const double d = static_cast<double>(p_dst);
  const double wobble =
      cfg_.redist_wobble *
      std::sin(0.8 * d + core::unit_hash(cfg_.surface_seed, 99) * 2.0 * M_PI);
  const double t = cfg_.redist_base + cfg_.redist_per_dst * d +
                   cfg_.redist_per_src * s + cfg_.redist_cross * s * d + wobble;
  return std::max(t, 0.01);
}

platform::ClusterSpec JavaClusterModel::platform_spec() const {
  return platform::bayreuth32(cfg_.num_nodes, cfg_.nominal_flops);
}

}  // namespace mtsched::machine
