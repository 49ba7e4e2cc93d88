// A machine behaviour model backed by explicit measurement tables —
// "bring your own cluster". Users who have real measurements (e.g. from
// an actual TGrid/MPI deployment) can load them from a text file and run
// the whole pipeline — emulation, profiling, the case study — against
// their numbers instead of the built-in behavioural models.
//
// Text format (see parse_machine_tables):
//
//   # comment
//   nodes = 32
//   nominal_flops = 250e6
//   noise_sigma = 0.02
//   exec matmul 2000 : 130.1 66.2 45.0 ...   # one value per p = 1..nodes
//   exec matadd 2000 : 22.9 11.6 ...
//   startup : 0.72 0.78 ...                  # one value per p
//   redist 1 : 0.11 0.12 ...                 # row p_src = 1, p_dst = 1..nodes
//   redist 2 : ...
//
// Missing redist rows fall back to the nearest provided p_src row; exec
// tables must cover every p.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "mtsched/core/matrix.hpp"
#include "mtsched/machine/machine_model.hpp"

namespace mtsched::machine {

/// Raw measurement tables (all times in seconds).
struct MachineTables {
  int num_nodes = 0;
  double nominal_flops = 250e6;
  double noise_sigma = 0.0;
  /// Mean execution seconds per (kernel, n), indexed by p - 1; each vector
  /// must have num_nodes entries.
  std::map<std::pair<dag::TaskKernel, int>, std::vector<double>> exec;
  /// Mean startup seconds, indexed by p - 1.
  std::vector<double> startup;
  /// Redistribution overhead rows: p_src - 1 -> per-p_dst vector. Sparse;
  /// lookups use the nearest provided row.
  std::map<int, std::vector<double>> redist_rows;
};

class TableMachineModel final : public MachineModel {
 public:
  /// Validates completeness (num_nodes >= 1, exec tables full-length,
  /// startup full-length, at least one redist row, positive times).
  explicit TableMachineModel(MachineTables tables);

  double exec_time_mean(dag::TaskKernel k, int n, int p) const override;
  double startup_mean(int p) const override;
  double redist_overhead_mean(int p_src, int p_dst) const override;
  double nominal_flops() const override { return tables_.nominal_flops; }
  int max_procs() const override { return tables_.num_nodes; }
  double noise_sigma() const override { return tables_.noise_sigma; }


 private:
  MachineTables tables_;
};

/// Parses the text format described above. Throws core::ParseError on
/// malformed input and core::InvalidArgument on incomplete tables.
MachineTables parse_machine_tables(const std::string& text);

/// Serializes tables back to the same format (round-trips).
std::string to_text(const MachineTables& tables);

/// Snapshots any machine model's noise-free means into tables (for the
/// given kernel/dimension pairs), e.g. to export the built-in behavioural
/// model as a measurement file.
MachineTables snapshot_tables(
    const MachineModel& model,
    const std::vector<std::pair<dag::TaskKernel, int>>& workloads);

}  // namespace mtsched::machine
