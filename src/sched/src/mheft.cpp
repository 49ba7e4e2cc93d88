#include "mtsched/sched/mheft.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>

#include "list_common.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/obs/trace.hpp"

namespace mtsched::sched {

MHeftScheduler::MHeftScheduler(const SchedCost& cost, int num_procs,
                               int max_alloc)
    : cost_(cost), num_procs_(num_procs), max_alloc_(max_alloc) {
  MTSCHED_REQUIRE(num_procs >= 1, "cluster must have at least one processor");
  MTSCHED_REQUIRE(max_alloc >= 0 && max_alloc <= num_procs,
                  "max_alloc must be in [0, P]");
}

Schedule MHeftScheduler::schedule(const dag::Dag& g) const {
  const obs::Span obs_span(
      obs::current_track(), "sched", "schedule:MHEFT", [&] {
        return obs::Args{{"tasks", std::to_string(g.num_tasks())},
                         {"P", std::to_string(num_procs_)}};
      });
  MTSCHED_REQUIRE(g.num_tasks() > 0, "cannot schedule an empty DAG");
  const int P = num_procs_;
  const int p_cap = max_alloc_ == 0 ? P : max_alloc_;
  const auto cap = static_cast<std::size_t>(p_cap);

  const CostCurveTable table(cost_, P, g);

  // Bottom levels with sequential times for priorities (HEFT's upward
  // rank, specialized to a homogeneous cluster).
  core::ArenaScope scratch(core::scratch_arena());
  auto tau1 = scratch.arena().make_span<double>(g.num_tasks());
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    tau1[t] = table.tau(t, 1);
  }
  const auto bl = detail::bottom_levels(g, tau1, scratch.arena());
  const auto priority = detail::priority_order(bl, scratch.arena());
  detail::ReadyQueue ready(g, priority, scratch.arena());

  Schedule s;
  s.placements.resize(g.num_tasks());
  s.proc_order.assign(static_cast<std::size_t>(P), {});
  std::vector<double> proc_ready(static_cast<std::size_t>(P), 0.0);

  // The candidate loop sweeps p, so it reads the task's row and one
  // p_dst = 1..cap redistribution curve per predecessor from the table.
  std::vector<std::span<const double>> redist_curves;  // row per predecessor

  // Processors ordered by (availability, id); the prefix of size p is the
  // EST set for every candidate allocation. A placement moves only the
  // processors it used, all to the same finish time, so the ranking is
  // repaired by removing them and merging them back (they stay ordered by
  // id) instead of re-sorting: the total order (proc_ready, id)
  // determines the result uniquely either way.
  std::vector<int> by_ready(static_cast<std::size_t>(P));
  std::iota(by_ready.begin(), by_ready.end(), 0);
  std::vector<int> keep_buf(static_cast<std::size_t>(P));
  std::vector<std::uint32_t> update_stamp(static_cast<std::size_t>(P), 0);
  std::uint32_t update_epoch = 0;

  for (std::size_t placed_count = 0; placed_count < g.num_tasks();
       ++placed_count) {
    const dag::TaskId chosen = ready.pop();
    const auto& preds = g.predecessors(chosen);

    const auto task_curve = table.task_row(chosen);
    redist_curves.resize(preds.size());
    for (std::size_t qi = 0; qi < preds.size(); ++qi) {
      const auto& qp = s.placements[preds[qi]];
      redist_curves[qi] = table.redist_curve(
          preds[qi], static_cast<int>(qp.procs.size()), cap);
    }

    double best_finish = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    int best_p = 1;
    for (int p = 1; p <= p_cap; ++p) {
      double data_ready = 0.0;
      for (std::size_t qi = 0; qi < preds.size(); ++qi) {
        const auto& qp = s.placements[preds[qi]];
        data_ready = std::max(
            data_ready,
            qp.est_finish + redist_curves[qi][static_cast<std::size_t>(p - 1)]);
      }
      const double avail =
          proc_ready[static_cast<std::size_t>(by_ready[p - 1])];
      const double start = std::max(data_ready, avail);
      const double finish = start + task_curve[static_cast<std::size_t>(p - 1)];
      // Strictly-better wins; ties favour the smaller allocation that was
      // found first.
      if (finish < best_finish - 1e-12) {
        best_finish = finish;
        best_start = start;
        best_p = p;
      }
    }

    auto& pl = s.placements[chosen];
    pl.procs.assign(by_ready.begin(), by_ready.begin() + best_p);
    std::sort(pl.procs.begin(), pl.procs.end());
    pl.est_start = best_start;
    pl.est_finish = best_finish;
    ++update_epoch;
    for (int pr : pl.procs) {
      proc_ready[static_cast<std::size_t>(pr)] = best_finish;
      s.proc_order[static_cast<std::size_t>(pr)].push_back(chosen);
      update_stamp[static_cast<std::size_t>(pr)] = update_epoch;
    }
    // Repair the availability ranking: drop the just-updated processors
    // (preserving the order of the rest) and merge them back by
    // (proc_ready, id); pl.procs is id-sorted and shares one ready time,
    // so both ranges are ordered by that key.
    std::size_t kept = 0;
    for (int pr : by_ready) {
      if (update_stamp[static_cast<std::size_t>(pr)] != update_epoch) {
        keep_buf[kept++] = pr;
      }
    }
    std::size_t i = 0, j = 0, o = 0;
    while (i < kept && j < pl.procs.size()) {
      const int a = keep_buf[i];
      const int b = pl.procs[j];
      const double ra = proc_ready[static_cast<std::size_t>(a)];
      const double rb = proc_ready[static_cast<std::size_t>(b)];
      by_ready[o++] = (ra != rb ? ra < rb : a < b) ? keep_buf[i++]
                                                   : pl.procs[j++];
    }
    while (i < kept) by_ready[o++] = keep_buf[i++];
    while (j < pl.procs.size()) by_ready[o++] = pl.procs[j++];
    ready.mark_placed(chosen);
    s.est_makespan = std::max(s.est_makespan, best_finish);
  }

  validate_schedule(g, s, P);
  return s;
}

}  // namespace mtsched::sched
