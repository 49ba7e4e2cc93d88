#include "mtsched/simcore/replay.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/redist/plan.hpp"

namespace mtsched::simcore {

namespace {

/// Flat adjacency lists (CSR): row r holds items[off[r] .. off[r + 1]).
struct Csr {
  std::vector<std::size_t> off;
  std::vector<std::size_t> items;

  std::span<const std::size_t> row(std::size_t r) const {
    return {items.data() + off[r], off[r + 1] - off[r]};
  }
};

/// Builds an n-row Csr from the (row, item) pairs `visit(emit)` emits
/// (it is called twice and must emit the same pairs both times); each row
/// keeps its items in emission order.
template <typename Visit>
Csr make_csr(std::size_t n, const Visit& visit) {
  Csr c;
  c.off.assign(n + 1, 0);
  visit([&](std::size_t r, std::size_t) { ++c.off[r + 1]; });
  for (std::size_t r = 0; r < n; ++r) c.off[r + 1] += c.off[r];
  c.items.resize(c.off[n]);
  // Fill through off[r] as a cursor, which leaves off[r] at the old
  // off[r + 1]; shift back afterwards.
  visit([&](std::size_t r, std::size_t item) { c.items[c.off[r]++] = item; });
  for (std::size_t r = n; r > 0; --r) c.off[r] = c.off[r - 1];
  c.off[0] = 0;
  return c;
}

/// Lifecycle of one task; phases only move forward.
enum class Phase : std::uint8_t { Waiting, StartingUp, Up, Executing, Done };

/// Mutable replay state; lives on the replay() stack, referenced by the
/// engine callbacks (the engine drains before replay() returns).
class Replay {
 public:
  Replay(const dag::Dag& g, const sched::Schedule& s, ClusterSim& cluster,
         const ReplayPolicy& policy)
      : g_(g),
        s_(s),
        cluster_(cluster),
        policy_(policy),
        phase_(g.num_tasks(), Phase::Waiting),
        edges_left_(g.num_tasks(), 0) {
    const auto& edges = g.edges();
    trace_.tasks.resize(g.num_tasks());
    trace_.edges.resize(edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      trace_.edges[i].src = edges[i].src;
      trace_.edges[i].dst = edges[i].dst;
      ++edges_left_[edges[i].dst];
    }
    out_edges_ = make_csr(g.num_tasks(), [&](const auto& emit) {
      for (std::size_t i = 0; i < edges.size(); ++i) emit(edges[i].src, i);
    });
    in_edges_ = make_csr(g.num_tasks(), [&](const auto& emit) {
      for (std::size_t i = 0; i < edges.size(); ++i) emit(edges[i].dst, i);
    });
    const auto opreds = sched::order_predecessors(g, s);
    order_preds_left_.resize(g.num_tasks());
    for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
      order_preds_left_[t] = static_cast<int>(opreds[t].size());
    }
    order_succs_ = make_csr(g.num_tasks(), [&](const auto& emit) {
      for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
        for (dag::TaskId p : opreds[t]) emit(p, t);
      }
    });
  }

  sched::RunTrace run() {
    for (dag::TaskId t = 0; t < g_.num_tasks(); ++t) maybe_spawn(t);
    cluster_.engine().run();
    for (dag::TaskId t = 0; t < g_.num_tasks(); ++t) {
      MTSCHED_INVARIANT(phase_[t] == Phase::Done,
                        "replay finished with unexecuted tasks");
    }
    return std::move(trace_);
  }

 private:
  double now() { return cluster_.engine().now(); }

  void maybe_spawn(dag::TaskId t) {
    if (phase_[t] != Phase::Waiting || order_preds_left_[t] > 0) return;
    phase_[t] = Phase::StartingUp;
    trace_.tasks[t].startup_begin = now();
    policy_.startup(t, [this, t](double) { on_up(t); });
  }

  void on_up(dag::TaskId t) {
    phase_[t] = Phase::Up;
    if (policy_.transfer_waits_for_consumer) {
      for (std::size_t e : in_edges_.row(t)) maybe_request(e);
    }
    maybe_execute(t);
  }

  void maybe_execute(dag::TaskId t) {
    if (phase_[t] != Phase::Up || edges_left_[t] > 0) return;
    phase_[t] = Phase::Executing;
    trace_.tasks[t].exec_begin = now();
    policy_.execute(t, [this, t](double when) { on_done(t, when); });
  }

  void on_done(dag::TaskId t, double when) {
    phase_[t] = Phase::Done;
    trace_.tasks[t].finish = when;
    trace_.makespan = std::max(trace_.makespan, when);
    // Processor-order successors may now seize the released processors.
    for (std::size_t u : order_succs_.row(t)) {
      --order_preds_left_[u];
      maybe_spawn(static_cast<dag::TaskId>(u));
    }
    for (std::size_t e : out_edges_.row(t)) maybe_request(e);
  }

  /// Requests a redistribution once its producer is done (and, when the
  /// policy says so, its consumer is up). Each of the two conditions is
  /// checked when it becomes true, so every edge is requested once.
  void maybe_request(std::size_t edge) {
    const auto& e = g_.edges()[edge];
    if (phase_[e.src] != Phase::Done) return;
    if (policy_.transfer_waits_for_consumer && phase_[e.dst] < Phase::Up) {
      return;
    }
    trace_.edges[edge].request = now();
    policy_.overhead(edge, [this, edge](double when) { transfer(edge, when); });
  }

  void transfer(std::size_t edge, double when) {
    trace_.edges[edge].transfer = when;
    const auto& e = g_.edges()[edge];
    const auto& src = s_.placement(e.src).procs;
    const auto& dst = s_.placement(e.dst).procs;
    const auto plan = redist::plan_block_redistribution(
        g_.task(e.src).matrix_dim, static_cast<int>(src.size()),
        static_cast<int>(dst.size()));
    const auto pt = make_redistribution_ptask(
        src, dst, plan,
        "redist_" + std::to_string(e.src) + "_" + std::to_string(e.dst));
    cluster_.submit_ptask(pt, [this, edge](double done_at) {
      trace_.edges[edge].done = done_at;
      const dag::TaskId consumer = g_.edges()[edge].dst;
      --edges_left_[consumer];
      maybe_execute(consumer);
    });
  }

  const dag::Dag& g_;
  const sched::Schedule& s_;
  ClusterSim& cluster_;
  const ReplayPolicy& policy_;
  sched::RunTrace trace_;

  std::vector<Phase> phase_;
  std::vector<int> order_preds_left_;  // processor-order gating
  std::vector<int> edges_left_;        // inbound redistributions not done
  Csr out_edges_;    // task -> out-edge indices, ascending
  Csr in_edges_;     // task -> in-edge indices, ascending
  Csr order_succs_;  // task -> processor-order successors, ascending id
};

}  // namespace

sched::RunTrace replay(const dag::Dag& g, const sched::Schedule& s,
                       ClusterSim& cluster, const ReplayPolicy& policy) {
  return Replay(g, s, cluster, policy).run();
}

}  // namespace mtsched::simcore
