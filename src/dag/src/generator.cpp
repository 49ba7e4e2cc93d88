#include "mtsched/dag/generator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"

namespace mtsched::dag {

namespace {

/// A matrix available for consumption: either a raw input (producer ==
/// kInvalidTask) or the output of a task.
struct MatRef {
  TaskId producer = kInvalidTask;
  int level = -1;  ///< level of the producing task; -1 for inputs
};

int ilog2_floor(int v) {
  int l = 0;
  while ((1 << (l + 1)) <= v) ++l;
  return l;
}

}  // namespace

std::string DagGenParams::id() const {
  std::ostringstream os;
  os << 'v' << width << "_r" << add_ratio << "_n" << matrix_dim << "_s"
     << seed;
  return os.str();
}

GeneratedDag generate_random_dag(const DagGenParams& params) {
  MTSCHED_REQUIRE(params.num_tasks >= 1, "num_tasks must be >= 1");
  MTSCHED_REQUIRE(params.width >= 2, "width (input matrices) must be >= 2");
  MTSCHED_REQUIRE(params.add_ratio >= 0.0 && params.add_ratio <= 1.0,
                  "add_ratio must be in [0, 1]");
  MTSCHED_REQUIRE(params.matrix_dim > 0, "matrix_dim must be positive");

  core::Rng rng(params.seed);

  // Pre-assign kernels so the addition/multiplication ratio is exact:
  // round(add_ratio * num_tasks) additions, randomly interleaved.
  const int n_add = static_cast<int>(
      std::lround(params.add_ratio * static_cast<double>(params.num_tasks)));
  std::vector<TaskKernel> kernels(static_cast<std::size_t>(params.num_tasks),
                                  TaskKernel::MatMul);
  std::fill_n(kernels.begin(), n_add, TaskKernel::MatAdd);
  rng.shuffle(kernels);

  GeneratedDag out;
  out.params = params;
  out.name = params.id();
  Dag& g = out.graph;

  std::vector<MatRef> pool;  // all matrices available so far
  for (int i = 0; i < params.width; ++i) pool.push_back(MatRef{});

  auto consume = [&](TaskId consumer, const MatRef& m) {
    if (m.producer != kInvalidTask) g.add_edge(m.producer, consumer);
  };

  int generated = 0;
  int level = 0;
  // Matrices produced on the previous level (first-operand candidates for
  // non-entry tasks; keeps the graph connected level to level). Tracked
  // across iterations: a level's outputs are exactly the pool suffix it
  // appends, so carrying those indices forward yields the same ascending
  // index list a full pool rescan would build — without the rescan, which
  // made generation quadratic in the task count.
  std::vector<std::size_t> prev_level;
  while (generated < params.num_tasks) {
    int level_tasks;
    if (level == 0) {
      // Entry level: between 1 and log2(v) entry tasks consuming inputs.
      const int hi = std::max(1, ilog2_floor(params.width));
      level_tasks = static_cast<int>(rng.uniform_int(1, hi));
    } else {
      const int hi = std::max(1, ilog2_floor(static_cast<int>(pool.size())));
      level_tasks = static_cast<int>(rng.uniform_int(1, hi));
    }
    level_tasks = std::min(level_tasks, params.num_tasks - generated);

    std::vector<MatRef> produced;
    for (int t = 0; t < level_tasks; ++t) {
      const TaskId id =
          g.add_task(kernels[static_cast<std::size_t>(generated)],
                     params.matrix_dim);
      std::size_t first;
      if (level == 0 || prev_level.empty()) {
        first = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      } else {
        first = prev_level[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(prev_level.size()) - 1))];
      }
      std::size_t second = first;
      if (pool.size() > 1) {
        while (second == first) {
          second = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool.size()) - 1));
        }
      }
      consume(id, pool[first]);
      consume(id, pool[second]);
      produced.push_back(MatRef{id, level});
      ++generated;
    }
    prev_level.clear();
    for (const auto& m : produced) {
      prev_level.push_back(pool.size());
      pool.push_back(m);
    }
    ++level;
  }

  g.validate();
  return out;
}

std::vector<DagGenParams> table1_grid(std::uint64_t base_seed, int num_tasks) {
  MTSCHED_REQUIRE(num_tasks >= 1, "num_tasks must be >= 1");
  const int widths[] = {2, 4, 8};
  const double ratios[] = {0.5, 0.75, 1.0};
  const int dims[] = {2000, 3000};
  constexpr int kSamples = 3;

  std::vector<DagGenParams> grid;
  std::uint64_t idx = 0;
  for (int n : dims) {
    for (int v : widths) {
      for (double r : ratios) {
        for (int s = 0; s < kSamples; ++s) {
          DagGenParams p;
          p.num_tasks = num_tasks;
          p.width = v;
          p.add_ratio = r;
          p.matrix_dim = n;
          p.seed = core::hash_mix(base_seed, idx++);
          grid.push_back(p);
        }
      }
    }
  }
  MTSCHED_INVARIANT(grid.size() == 54, "Table I grid must have 54 instances");
  return grid;
}

std::vector<GeneratedDag> generate_table1_suite(std::uint64_t base_seed,
                                                int num_tasks) {
  std::vector<GeneratedDag> suite;
  for (const auto& p : table1_grid(base_seed, num_tasks))
    suite.push_back(generate_random_dag(p));
  return suite;
}

}  // namespace mtsched::dag
