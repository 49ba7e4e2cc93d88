#include "mtsched/dag/daggen.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"

namespace mtsched::dag {

Dag generate_daggen(const DaggenParams& params) {
  MTSCHED_REQUIRE(params.num_tasks >= 1, "num_tasks must be >= 1");
  MTSCHED_REQUIRE(params.fat > 0.0 && params.fat <= 1.0,
                  "fat must be in (0, 1]");
  MTSCHED_REQUIRE(params.regularity >= 0.0 && params.regularity <= 1.0,
                  "regularity must be in [0, 1]");
  MTSCHED_REQUIRE(params.density > 0.0 && params.density <= 1.0,
                  "density must be in (0, 1]");
  MTSCHED_REQUIRE(params.jump >= 1, "jump must be >= 1");
  MTSCHED_REQUIRE(params.add_ratio >= 0.0 && params.add_ratio <= 1.0,
                  "add_ratio must be in [0, 1]");
  MTSCHED_REQUIRE(params.matrix_dim > 0, "matrix_dim must be positive");

  core::Rng rng(params.seed);

  // Kernel mix, exact like the Table I generator.
  const int n_add = static_cast<int>(
      std::lround(params.add_ratio * static_cast<double>(params.num_tasks)));
  std::vector<TaskKernel> kernels(static_cast<std::size_t>(params.num_tasks),
                                  TaskKernel::MatMul);
  std::fill_n(kernels.begin(), n_add, TaskKernel::MatAdd);
  rng.shuffle(kernels);

  // Layer widths: target fat * sqrt(n) * 2, modulated by regularity.
  const double target_width = std::max(
      1.0, 2.0 * params.fat * std::sqrt(static_cast<double>(params.num_tasks)));
  std::vector<int> layer_sizes;
  int produced = 0;
  while (produced < params.num_tasks) {
    // regularity 1 -> exactly the target; 0 -> uniform in [1, 2*target].
    const double spread = (1.0 - params.regularity) * target_width;
    const double w = target_width + rng.uniform(-spread, spread);
    int size = std::max(1, static_cast<int>(std::lround(w)));
    size = std::min(size, params.num_tasks - produced);
    layer_sizes.push_back(size);
    produced += size;
  }

  Dag g;
  std::vector<std::vector<TaskId>> layers;
  int next_kernel = 0;
  for (int size : layer_sizes) {
    std::vector<TaskId> layer;
    for (int i = 0; i < size; ++i) {
      layer.push_back(g.add_task(
          kernels[static_cast<std::size_t>(next_kernel++)],
          params.matrix_dim));
    }
    layers.push_back(std::move(layer));
  }

  // Edges: for each task below the first layer, candidate parents live in
  // the up-to-`jump` preceding layers; each candidate connects with
  // probability `density`, capped at 2 inbound edges (binary kernels),
  // with at least one inbound edge guaranteed.
  std::vector<int> indeg(g.num_tasks(), 0);
  for (std::size_t li = 1; li < layers.size(); ++li) {
    // Gather candidate parents.
    std::vector<TaskId> candidates;
    const std::size_t first =
        li >= static_cast<std::size_t>(params.jump) ? li - params.jump : 0;
    for (std::size_t pl = first; pl < li; ++pl) {
      candidates.insert(candidates.end(), layers[pl].begin(),
                        layers[pl].end());
    }
    for (TaskId t : layers[li]) {
      std::vector<TaskId> shuffled = candidates;
      rng.shuffle(shuffled);
      for (TaskId parent : shuffled) {
        if (indeg[t] >= 2) break;
        if (rng.uniform() < params.density) {
          g.add_edge(parent, t);
          ++indeg[t];
        }
      }
      if (indeg[t] == 0) {
        // Guarantee connectivity: link to a random previous-layer task.
        const auto& prev = layers[li - 1];
        const TaskId parent = prev[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1))];
        g.add_edge(parent, t);
        ++indeg[t];
      }
    }
  }

  g.validate();
  return g;
}

}  // namespace mtsched::dag
