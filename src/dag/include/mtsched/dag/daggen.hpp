// DAGGEN-style layered random DAG generator.
//
// Besides the paper's own Table I generator, the mixed-parallel
// scheduling literature (including the authors' other papers) evaluates
// on synthetic graphs from the DAGGEN tool, which shapes a layered DAG
// with four knobs:
//
//   fat        — width of the DAG: the number of tasks per layer is drawn
//                around fat * sqrt(n); small fat gives chain-like graphs,
//                large fat gives fork-join-like graphs;
//   regularity — uniformity of layer widths (1 = all layers equal, 0 =
//                widths vary wildly);
//   density    — fraction of the possible edges between consecutive
//                layers that actually exist;
//   jump       — edges may skip up to `jump` layers (jump = 1 connects
//                only consecutive layers).
//
// Tasks are assigned matrix kernels like the Table I generator (the
// `add_ratio` knob), so the graphs plug into the rest of the pipeline.
// Every non-entry task keeps at least one inbound edge, and in-degrees
// are capped at 2 (the kernels are binary operators).
#pragma once

#include <cstdint>

#include "mtsched/dag/dag.hpp"

namespace mtsched::dag {

struct DaggenParams {
  int num_tasks = 20;
  double fat = 0.5;         ///< in (0, 1]: layer width ~ fat * sqrt(n) * 2
  double regularity = 0.5;  ///< in [0, 1]
  double density = 0.5;     ///< in (0, 1]
  int jump = 2;             ///< >= 1
  double add_ratio = 0.5;   ///< fraction of addition tasks
  int matrix_dim = 2000;
  std::uint64_t seed = 1;
};

/// Generates one layered random DAG. Throws core::InvalidArgument on
/// out-of-range knobs.
Dag generate_daggen(const DaggenParams& params);

}  // namespace mtsched::dag
