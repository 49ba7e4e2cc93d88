// Random DAG generator for the case study (paper Section II-B, Table I).
//
// The generator builds applications of matrix-addition and matrix-
// multiplication tasks:
//   * the number of entry tasks is drawn uniformly from [1, log2(v)],
//     where v is the number of input matrices (the DAG "width" knob);
//   * each task consumes two matrices and produces one;
//   * the number of tasks on each subsequent level is drawn uniformly from
//     [1, log2(m)] where m counts all matrices available so far (inputs
//     plus the outputs of previously generated tasks);
//   * generation stops once the requested total number of tasks exists;
//   * the fraction of addition tasks is set by `add_ratio` (a ratio of 0.2
//     with 10 tasks yields 2 additions and 8 multiplications).
//
// To keep the graph connected, every non-entry task draws its first operand
// from the matrices produced on the immediately preceding level and its
// second operand from all matrices available so far; consuming a raw input
// matrix creates no edge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mtsched/dag/dag.hpp"

namespace mtsched::dag {

/// Knobs of the generator; defaults are the paper's Table I values.
struct DagGenParams {
  int num_tasks = 10;      ///< total tasks per DAG
  int width = 2;           ///< v: number of input matrices (2, 4 or 8)
  double add_ratio = 0.5;  ///< fraction of tasks that are additions
  int matrix_dim = 2000;   ///< n (2000 or 3000)
  std::uint64_t seed = 1;  ///< generator seed

  /// Short id like "v4_r0.75_n2000_s1" used to label figure rows.
  std::string id() const;
};

/// A generated instance with its provenance.
struct GeneratedDag {
  Dag graph;
  DagGenParams params;
  std::string name;  ///< equals params.id()
};

/// Generates one random DAG. Throws core::InvalidArgument on bad knobs
/// (non-positive counts, width < 2, ratio outside [0, 1]).
GeneratedDag generate_random_dag(const DagGenParams& params);

/// The paper's full Table I parameter grid: width in {2,4,8} x add_ratio in
/// {0.5,0.75,1.0} x n in {2000,3000} x 3 samples = 54 DAGs. `base_seed`
/// derives each instance's seed deterministically. `num_tasks` scales every
/// instance (the paper's value is 10; larger values keep the grid shape and
/// seeds, only the per-DAG task count changes).
std::vector<DagGenParams> table1_grid(std::uint64_t base_seed = 2011,
                                      int num_tasks = 10);

/// Convenience: generate the full 54-DAG suite of Table I.
std::vector<GeneratedDag> generate_table1_suite(std::uint64_t base_seed = 2011,
                                                int num_tasks = 10);

}  // namespace mtsched::dag
