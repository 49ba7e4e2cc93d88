#include "mtsched/sched/hetero.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "list_common.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/obs/trace.hpp"

namespace mtsched::sched {

VirtualCluster::VirtualCluster(const platform::ClusterSpec& spec)
    : spec_(spec) {
  spec_.validate();
  virtual_procs_ = std::max(
      1, static_cast<int>(
             std::floor(spec_.total_flops() / spec_.reference_flops())));
}

std::vector<int> VirtualCluster::translate(
    int virtual_alloc, const std::vector<int>& preference) const {
  MTSCHED_REQUIRE(virtual_alloc >= 1, "virtual allocation must be >= 1");
  MTSCHED_REQUIRE(!preference.empty(), "preference list must be non-empty");
  const double target =
      static_cast<double>(virtual_alloc) * spec_.reference_flops();
  std::vector<int> chosen;
  double s_min = 0.0;
  for (int node : preference) {
    MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes,
                    "preference entry out of range");
    chosen.push_back(node);
    s_min = chosen.size() == 1 ? spec_.flops_of(node)
                               : std::min(s_min, spec_.flops_of(node));
    // Discounted aggregate: every member paced by the slowest.
    if (static_cast<double>(chosen.size()) * s_min >= target) break;
  }
  return chosen;  // possibly the whole preference list (clamped allocation)
}

HeteroListMapper::HeteroListMapper(const platform::ClusterSpec& spec)
    : vc_(spec) {}

Schedule HeteroListMapper::map(const dag::Dag& g,
                               const std::vector<int>& virtual_alloc,
                               const SchedCost& cost) const {
  const auto& spec = vc_.spec();
  const int P = spec.num_nodes;
  const obs::Span obs_span(
      obs::current_track(), "sched", "map:hetero", [&] {
        return obs::Args{{"tasks", std::to_string(g.num_tasks())},
                         {"P", std::to_string(P)}};
      });
  MTSCHED_REQUIRE(virtual_alloc.size() == g.num_tasks(),
                  "allocation vector size mismatch");
  for (int a : virtual_alloc) {
    MTSCHED_REQUIRE(a >= 1 && a <= vc_.virtual_procs(),
                    "virtual allocations must be in [1, virtual_procs]");
  }

  // Task times are asked for up to virtual_procs() processors,
  // redistributions between physical set sizes up to P.
  const CostCurveTable table(cost, std::max(P, vc_.virtual_procs()), g);

  // Priorities: bottom levels with virtual-cluster times.
  core::ArenaScope scratch(core::scratch_arena());
  auto tau = scratch.arena().make_span<double>(g.num_tasks());
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    tau[t] = table.tau(t, virtual_alloc[t]);
  }
  const auto bl = detail::bottom_levels(g, tau, scratch.arena());
  const auto priority = detail::priority_order(bl, scratch.arena());
  detail::ReadyQueue ready(g, priority, scratch.arena());
  // Node speeds, read from the platform once: the preference sort below
  // compares them on every tie in ready time.
  auto speed = scratch.arena().make_span<double>(static_cast<std::size_t>(P));
  for (int n = 0; n < P; ++n) {
    speed[static_cast<std::size_t>(n)] = spec.flops_of(n);
  }

  Schedule s;
  s.placements.resize(g.num_tasks());
  s.proc_order.assign(static_cast<std::size_t>(P), {});
  std::vector<double> proc_ready(static_cast<std::size_t>(P), 0.0);

  // Per-placement scratch, sized once per call.
  std::vector<int> pref(static_cast<std::size_t>(P));

  for (std::size_t done = 0; done < g.num_tasks(); ++done) {
    const dag::TaskId chosen = ready.pop();

    // Preference: earliest-available first, faster node on ties — this
    // also groups similar-speed nodes, limiting the slowest-member
    // discount.
    // Explicit id tie-break makes this a total order, so std::sort gives
    // the stable ranking without stable_sort's per-call temporary buffer.
    std::iota(pref.begin(), pref.end(), 0);
    std::sort(pref.begin(), pref.end(), [&](int a, int b) {
      const double ra = proc_ready[static_cast<std::size_t>(a)];
      const double rb = proc_ready[static_cast<std::size_t>(b)];
      if (ra != rb) return ra < rb;
      const double fa = speed[static_cast<std::size_t>(a)];
      const double fb = speed[static_cast<std::size_t>(b)];
      if (fa != fb) return fa > fb;
      return a < b;
    });
    auto procs = vc_.translate(virtual_alloc[chosen], pref);
    std::sort(procs.begin(), procs.end());

    double data_ready = 0.0;
    for (dag::TaskId q : g.predecessors(chosen)) {
      const auto& qp = s.placements[q];
      data_ready = std::max(
          data_ready,
          qp.est_finish + table.redist(q, static_cast<int>(qp.procs.size()),
                                       static_cast<int>(procs.size())));
    }
    double avail = 0.0;
    for (int pr : procs) {
      avail = std::max(avail, proc_ready[static_cast<std::size_t>(pr)]);
    }
    const double start = std::max(data_ready, avail);
    // Execution estimate: the virtual-cluster time, corrected by how the
    // chosen physical set actually performs (slowest-member pacing).
    const double k_eff = static_cast<double>(procs.size()) /
                         platform::exec_slowdown(spec, procs);
    const int p_eff = std::clamp(
        static_cast<int>(std::lround(k_eff)), 1, vc_.virtual_procs());
    const double finish = start + table.tau(chosen, p_eff);

    auto& pl = s.placements[chosen];
    pl.procs = procs;
    pl.est_start = start;
    pl.est_finish = finish;
    for (int pr : procs) {
      proc_ready[static_cast<std::size_t>(pr)] = finish;
      s.proc_order[static_cast<std::size_t>(pr)].push_back(chosen);
    }
    ready.mark_placed(chosen);
    s.est_makespan = std::max(s.est_makespan, finish);
  }

  validate_schedule(g, s, P);
  return s;
}

}  // namespace mtsched::sched
