// CPA-family allocation (CPA, HCPA, MCPA) and the serial / maximally
// parallel baselines. The growth loop re-queries the same (task, p)
// points every iteration — CPA's gains, HCPA's efficiency envelope — so
// task times come from one CostCurveTable bound to the DAG: each distinct
// (kernel, matrix_dim) row is fetched with one task_time_curve call and
// every later query is an array load.
#include "mtsched/sched/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "mtsched/core/arena.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/obs/trace.hpp"

namespace mtsched::sched {

namespace {

constexpr double kEps = 1e-12;

/// Top/bottom levels with zero edge weights (classic CPA uses computation
/// times only during allocation), stored by topological position.
///
/// Changing one task's time can only move the bottom levels at or before
/// its position and the top levels after it, so set_time() recomputes
/// exactly those two ranges with plain sequential sweeps — and on
/// CPA-shaped growth most of them really do move, so tracking which
/// levels changed would cost more than it skips. The same sweeps refresh
/// every task's critical-path length top + bottom and their maximum
/// T_CP. Levels are max-plus expressions over exact operands, so the
/// values do not depend on which tasks a refresh revisits: they are
/// bit-identical to a from-scratch rebuild.
///
/// The sweeps are shaped for the branch predictor rather than for the
/// fewest loads. Out-degrees on Table-I DAGs spread over 0 to 7 and
/// more, and a variable-length inner loop mispredicts on most rows, so
/// every adjacency row is padded to whole chunks of kSuccChunk successors
/// or kPredChunk predecessors (at least one chunk per row). Padding slots
/// hold the sentinel position n, whose bottom and finish are +0.0, and
/// each chunk is one fixed-width max: about 90 % of rows are one chunk.
/// This stays exact: levels are sums of positive task times, so every
/// operand is +0.0 or positive (never NaN or -0.0), and the max over such
/// a set is one of its members whatever the order and however many extra
/// +0.0s join it.
class LevelTracker {
 public:
  static constexpr std::size_t kSuccChunk = 4;
  static constexpr std::size_t kPredChunk = 2;

  LevelTracker(const dag::Dag& g, std::span<const double> tau,
               core::Arena& arena)
      : order_(g.topology().order), pos_(g.topology().positions) {
    const auto topo = g.topology();
    const std::size_t n = order_.size();
    const auto padded = [](std::size_t degree, std::size_t chunk) {
      return std::max<std::size_t>(1, (degree + chunk - 1) / chunk) * chunk;
    };
    // Count the padded slots first so the spans are sized exactly.
    std::size_t np = 0, ns = 0;
    for (dag::TaskId t = 0; t < n; ++t) {
      np += padded(topo.pred_offsets[t + 1] - topo.pred_offsets[t],
                   kPredChunk);
      ns += padded(topo.succ_offsets[t + 1] - topo.succ_offsets[t],
                   kSuccChunk);
    }
    MTSCHED_REQUIRE(std::max(np, ns) <= UINT32_MAX,
                    "DAG too large for 32-bit level sweeps");
    pred_off_ = arena.make_span<std::uint32_t>(n + 1);
    preds_ = arena.make_span<std::uint32_t>(np);
    succ_off_ = arena.make_span<std::uint32_t>(n + 1);
    succs_ = arena.make_span<std::uint32_t>(ns);
    tau_ = arena.make_span<double>(n);
    top_ = arena.make_span<double>(n);
    finish_ = arena.make_span<double>(n + 1);
    bottom_ = arena.make_span<double>(n + 1);
    path_ = arena.make_span<double>(n);
    // Remap the Dag's cached CSR adjacency from task ids to positions,
    // keeping each task's edge order and padding each row with the
    // sentinel, so the sweeps walk contiguous memory with no id ->
    // position indirection.
    const auto sentinel = static_cast<std::uint32_t>(n);
    const auto remap = [&](std::span<const dag::TaskId> row, std::size_t chunk,
                           std::span<std::uint32_t> out, std::size_t& end) {
      const std::size_t stop = end + padded(row.size(), chunk);
      for (const dag::TaskId v : row) {
        out[end++] = static_cast<std::uint32_t>(pos_[v]);
      }
      while (end < stop) out[end++] = sentinel;
    };
    np = ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const dag::TaskId t = order_[i];
      remap({topo.preds.data() + topo.pred_offsets[t],
             topo.preds.data() + topo.pred_offsets[t + 1]},
            kPredChunk, preds_, np);
      remap({topo.succs.data() + topo.succ_offsets[t],
             topo.succs.data() + topo.succ_offsets[t + 1]},
            kSuccChunk, succs_, ns);
      pred_off_[i + 1] = static_cast<std::uint32_t>(np);
      succ_off_[i + 1] = static_cast<std::uint32_t>(ns);
      tau_[i] = tau[t];
    }
    sweep_tops(0, 0.0);
    t_cp_ = sweep_bottoms(n, 0.0);
  }

  /// Sets task t's time to `tau` and refreshes every level it can move.
  void set_time(dag::TaskId t, double tau) {
    const std::size_t c = pos_[t];
    tau_[c] = tau;
    finish_[c] = top_[c] + tau;
    t_cp_ = sweep_tops(c + 1, sweep_bottoms(c + 1, 0.0));
  }

  /// T_CP: the longest top + bottom over all tasks.
  double t_cp() const { return t_cp_; }
  /// top + bottom per task, indexed by task id.
  std::span<const double> path_lengths() const { return path_; }

 private:
  /// Bottom levels of positions [0, end), descending: each reads only its
  /// successors', which sit at higher positions. fl(tau + max b) equals
  /// the max of fl(tau + b) because rounding is monotone. Returns the max
  /// of `t_cp` and every refreshed path length; the running max is a
  /// local, not a member the path_ stores could alias.
  double sweep_bottoms(std::size_t end, double t_cp) {
    const double* const bottom = bottom_.data();
    for (std::size_t i = end; i-- > 0;) {
      const std::uint32_t* s = succs_.data() + succ_off_[i];
      const std::uint32_t* const last = succs_.data() + succ_off_[i + 1];
      const auto chunk_max = [&] {
        return std::max(std::max(bottom[s[0]], bottom[s[1]]),
                        std::max(bottom[s[2]], bottom[s[3]]));
      };
      double succ_max = chunk_max();
      for (s += kSuccChunk; s != last; s += kSuccChunk) {
        succ_max = std::max(succ_max, chunk_max());
      }
      bottom_[i] = tau_[i] + succ_max;
      t_cp = note(i, top_[i] + bottom_[i], t_cp);
    }
    return t_cp;
  }

  /// Top levels of positions [begin, n), ascending.
  double sweep_tops(std::size_t begin, double t_cp) {
    const double* const finish = finish_.data();
    for (std::size_t i = begin; i < order_.size(); ++i) {
      const std::uint32_t* p = preds_.data() + pred_off_[i];
      const std::uint32_t* const last = preds_.data() + pred_off_[i + 1];
      double top = std::max(finish[p[0]], finish[p[1]]);
      for (p += kPredChunk; p != last; p += kPredChunk) {
        top = std::max(top, std::max(finish[p[0]], finish[p[1]]));
      }
      top_[i] = top;
      finish_[i] = top + tau_[i];
      t_cp = note(i, top + bottom_[i], t_cp);
    }
    return t_cp;
  }

  double note(std::size_t i, double path, double t_cp) {
    path_[order_[i]] = path;
    return std::max(t_cp, path);
  }

  const std::vector<dag::TaskId>& order_;  ///< cached in the Dag
  const std::vector<std::size_t>& pos_;    ///< cached in the Dag
  // Everything below is indexed by topological position, except path_;
  // finish_ and bottom_ also hold the sentinel's +0.0 at position n.
  std::span<std::uint32_t> pred_off_, preds_, succ_off_, succs_;
  std::span<double> tau_;
  std::span<double> top_;     ///< longest path length ending before i
  std::span<double> finish_;  ///< top + tau
  std::span<double> bottom_;  ///< longest path length from i inclusive
  std::span<double> path_;    ///< top + bottom, by task id
  double t_cp_ = 0.0;
};

/// The three algorithms differ only in their growth gate:
/// `may_grow(t, new_p)` must be a pure predicate, and `on_grow(t)` is
/// invoked once per actual growth. Both are template parameters, so the
/// candidate scan, which asks the gate for many tasks per growth step,
/// calls them directly.
template <typename GrowGate, typename OnGrow>
std::vector<int> cpa_skeleton(const dag::Dag& g, int P,
                              const CostCurveTable& tt, core::Arena& arena,
                              const GrowGate& may_grow,
                              const OnGrow& on_grow) {
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  MTSCHED_REQUIRE(g.num_tasks() > 0, "cannot allocate an empty DAG");
  const std::size_t n = g.num_tasks();
  std::vector<int> alloc(n, 1);
  auto tau = arena.make_span<double>(n);
  for (dag::TaskId t = 0; t < n; ++t) {
    tau[t] = tt.tau(t, 1);
    MTSCHED_INVARIANT(tau[t] > 0.0, "task time must be positive");
  }
  LevelTracker lv(g, tau, arena);
  // gain[t] of one more processor depends only on alloc[t], so it is
  // refreshed only when t grows. A task already at P gets -inf, which
  // never beats the running best (and tau(t, P + 1) is never read).
  auto gain = arena.make_span<double>(n);
  const auto refresh_gain = [&](dag::TaskId t) {
    const int np = alloc[t] + 1;
    gain[t] = np > P ? -std::numeric_limits<double>::infinity()
                     : tau[t] / static_cast<double>(alloc[t]) -
                           tt.tau(t, np) / static_cast<double>(np);
  };
  for (dag::TaskId t = 0; t < n; ++t) refresh_gain(t);
  // Average-area terms alloc[t] * tau(t, alloc[t]); only the grown task's
  // term changes per iteration, but t_a is still the same ordered sum the
  // term-by-term recomputation produced.
  auto area_term = arena.make_span<double>(n);
  for (dag::TaskId t = 0; t < n; ++t) {
    area_term[t] = static_cast<double>(alloc[t]) * tau[t];
  }
  // Delta-maintained running total of the area terms. It only *screens*
  // the work-bound test: the break decision itself always re-derives t_a
  // from the exact left-to-right sum, but when t_cp clears the threshold
  // by more than a 1e-6 relative margin — many orders of magnitude above
  // the accumulated float divergence between the running total and the
  // exact sum (~iterations * ulp) — the break provably cannot fire and
  // the O(n) re-sum is skipped. Large DAGs spend almost every growth
  // iteration far above the threshold, so the per-iteration cost drops
  // to the candidate scan and the level sweeps.
  double area_run = 0.0;
  for (dag::TaskId t = 0; t < n; ++t) area_run += area_term[t];

  // The critical tasks of one growth step, in id order.
  auto crit = arena.make_span<dag::TaskId>(n);

  // Each iteration adds one processor to one task; the loop is bounded by
  // the total allocation head-room.
  const std::size_t max_iter = n * static_cast<std::size_t>(P);
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    const double t_cp = lv.t_cp();
    if (t_cp * static_cast<double>(P) <=
        area_run * (1.0 + 1e-6) + static_cast<double>(P) * kEps) {
      double area = 0.0;
      for (dag::TaskId t = 0; t < n; ++t) area += area_term[t];
      const double t_a = area / static_cast<double>(P);
      if (t_cp <= t_a + kEps) break;  // work-bound: stop growing
    }

    // Candidate: the critical-path task with the largest gain. As in the
    // original CPA, the gain may be small or even negative on bumpy cost
    // curves — the loop is driven by the T_CP/T_A criterion alone, which
    // is exactly how CPA comes to over-allocate. Ties resolve in id order:
    // a task replaces the running best only if it beats it by more than
    // kEps. The gate is pure, so asking it last changes no decision.
    //
    // About one task in ten is critical, scattered over the ids, so a
    // branch on `path[t] >= cut` mispredicts constantly. A branch-free
    // pass first compacts the critical ids, still in id order, and the
    // sequential rule then runs over those alone.
    const double cut = t_cp - 1e-9 * t_cp;
    const auto path = lv.path_lengths();
    std::size_t num_crit = 0;
    for (dag::TaskId t = 0; t < n; ++t) {
      crit[num_crit] = t;
      num_crit += path[t] >= cut;
    }
    dag::TaskId best = dag::kInvalidTask;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (const dag::TaskId t : crit.first(num_crit)) {
      if (!(gain[t] > best_gain + kEps)) continue;
      if (!may_grow(t, alloc[t] + 1)) continue;
      best_gain = gain[t];
      best = t;
    }
    if (best == dag::kInvalidTask) break;  // nothing can usefully grow
    alloc[best] += 1;
    tau[best] = tt.tau(best, alloc[best]);
    const double new_term = static_cast<double>(alloc[best]) * tau[best];
    area_run += new_term - area_term[best];
    area_term[best] = new_term;
    refresh_gain(best);
    lv.set_time(best, tau[best]);
    on_grow(best);
  }
  return alloc;
}

}  // namespace

std::vector<int> CpaAllocator::allocate(const dag::Dag& g,
                                        const SchedCost& cost, int P) const {
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           [&] {
                             return obs::Args{
                                 {"tasks", std::to_string(g.num_tasks())},
                                 {"P", std::to_string(P)}};
                           });
  const CostCurveTable tt(cost, P, g);
  core::ArenaScope scratch(core::scratch_arena());
  return cpa_skeleton(
      g, P, tt, scratch.arena(), [](dag::TaskId, int) { return true; },
      [](dag::TaskId) {});
}

HcpaAllocator::HcpaAllocator(double min_efficiency)
    : min_efficiency_(min_efficiency) {
  MTSCHED_REQUIRE(min_efficiency > 0.0 && min_efficiency <= 1.0,
                  "min_efficiency must be in (0, 1]");
}

std::vector<int> HcpaAllocator::allocate(const dag::Dag& g,
                                         const SchedCost& cost, int P) const {
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           [&] {
                             return obs::Args{
                                 {"tasks", std::to_string(g.num_tasks())},
                                 {"P", std::to_string(P)}};
                           });
  // Self-constrained cap: no task may use more than ceil(P / omega)
  // processors, where omega is the DAG's maximum precedence-level width —
  // enough processors always remain for the task parallelism the DAG can
  // offer. The cap binds under every cost model, including the analytical
  // one whose ideal speedup curves never trip the efficiency gate; this is
  // what makes HCPA's allocations structurally smaller than MCPA's.
  const auto& levels = g.precedence_levels();
  std::vector<int> width(static_cast<std::size_t>(g.num_levels()), 0);
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    ++width[static_cast<std::size_t>(levels[t])];
  }
  const int omega = *std::max_element(width.begin(), width.end());
  const int cap = std::max(
      1, static_cast<int>(std::ceil(static_cast<double>(P) /
                                    static_cast<double>(omega))));
  const CostCurveTable tt(cost, P, g);
  core::ArenaScope scratch(core::scratch_arena());
  const double min_eff = min_efficiency_;
  return cpa_skeleton(g, P, tt, scratch.arena(), [&](dag::TaskId t, int np) {
    if (np > cap) return false;
    // Envelope check: growth stops only on *sustained* inefficiency. A
    // single inefficient point (e.g. a p = 8 cache outlier in a profiled
    // cost curve) does not wall off all larger allocations.
    const auto eff = [&](int p) {
      return tt.tau(t, 1) / (static_cast<double>(p) * tt.tau(t, p));
    };
    if (eff(np) >= min_eff) return true;
    return np < P && eff(np + 1) >= min_eff;
  }, [](dag::TaskId) {});
}

std::vector<int> McpaAllocator::allocate(const dag::Dag& g,
                                         const SchedCost& cost, int P) const {
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           [&] {
                             return obs::Args{
                                 {"tasks", std::to_string(g.num_tasks())},
                                 {"P", std::to_string(P)}};
                           });
  const auto& level = g.precedence_levels();
  const int num_levels = g.num_levels();
  // Running total allocation per precedence level (starts at one processor
  // per task, matching the skeleton's initial allocation).
  std::vector<int> level_total(static_cast<std::size_t>(num_levels), 0);
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    ++level_total[static_cast<std::size_t>(level[t])];
  }
  const CostCurveTable tt(cost, P, g);
  core::ArenaScope scratch(core::scratch_arena());
  return cpa_skeleton(
      g, P, tt, scratch.arena(),
      [&](dag::TaskId t, int) {
        return level_total[static_cast<std::size_t>(level[t])] < P;
      },
      [&](dag::TaskId t) {
        ++level_total[static_cast<std::size_t>(level[t])];
      });
}

std::vector<int> SerialAllocator::allocate(const dag::Dag& g,
                                           const SchedCost& cost,
                                           int P) const {
  (void)cost;
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           [&] {
                             return obs::Args{
                                 {"tasks", std::to_string(g.num_tasks())},
                                 {"P", std::to_string(P)}};
                           });
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  return std::vector<int>(g.num_tasks(), 1);
}

std::vector<int> MaxParAllocator::allocate(const dag::Dag& g,
                                           const SchedCost& cost,
                                           int P) const {
  (void)cost;
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           [&] {
                             return obs::Args{
                                 {"tasks", std::to_string(g.num_tasks())},
                                 {"P", std::to_string(P)}};
                           });
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  return std::vector<int>(g.num_tasks(), P);
}

std::unique_ptr<Allocator> make_allocator(const std::string& name) {
  if (name == "CPA") return std::make_unique<CpaAllocator>();
  if (name == "HCPA") return std::make_unique<HcpaAllocator>();
  if (name == "MCPA") return std::make_unique<McpaAllocator>();
  if (name == "SEQ") return std::make_unique<SerialAllocator>();
  if (name == "MAXPAR") return std::make_unique<MaxParAllocator>();
  throw core::InvalidArgument("unknown allocator '" + name + "'");
}

}  // namespace mtsched::sched
