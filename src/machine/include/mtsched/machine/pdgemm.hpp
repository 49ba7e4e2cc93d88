// Behaviour model of PDGEMM (ScaLAPACK-style parallel matrix multiply from
// LibSci) on a Cray XT4, used by the paper's Figure 2 (right): a highly
// optimized kernel whose analytical model 2n^3 / (p * FLOPS) with
// FLOPS = 4165.3 MFlop/s still errs by ~10 % on average and up to ~20 %.
//
// The model uses a tight efficiency surface (0.83..1.0) over a 2-D
// block-cyclic process grid, including the mild grid-shape sensitivity of
// real PDGEMM (non-square process grids are a little slower).
#pragma once

#include "mtsched/machine/machine_model.hpp"

namespace mtsched::machine {

struct PdgemmConfig {
  int num_nodes = 64;
  double nominal_flops = 4165.3e6;  ///< paper's measured rate on Franklin
  double noise_sigma = 0.01;
  double eff_base = 0.93;
  double eff_amp = 0.065;
  double grid_penalty = 0.035;  ///< extra inefficiency for lopsided grids
  std::uint64_t surface_seed = 0xF4A9;
};

class PdgemmMachineModel final : public MachineModel {
 public:
  explicit PdgemmMachineModel(PdgemmConfig cfg = {});

  double exec_time_mean(dag::TaskKernel k, int n, int p) const override;
  double startup_mean(int p) const override;
  double redist_overhead_mean(int p_src, int p_dst) const override;
  double nominal_flops() const override { return cfg_.nominal_flops; }
  int max_procs() const override { return cfg_.num_nodes; }
  double noise_sigma() const override { return cfg_.noise_sigma; }

  double efficiency(int n, int p) const;


 private:
  PdgemmConfig cfg_;
};

/// The most-square factorization r x c = p with r <= c (PDGEMM grid shape).
std::pair<int, int> process_grid(int p);

}  // namespace mtsched::machine
