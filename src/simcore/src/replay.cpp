#include "mtsched/simcore/replay.hpp"

#include <algorithm>
#include <span>

#include "mtsched/core/error.hpp"

namespace mtsched::simcore {

/// Builds an n-row Csr from the (row, item) pairs `visit(emit)` emits
/// (it is called twice and must emit the same pairs both times); each row
/// keeps its items in emission order.
template <typename Visit>
ReplayPlan::Csr ReplayPlan::make_csr(std::size_t n,
                                             const Visit& visit) {
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

ReplayPlan::ReplayPlan(const dag::Dag& g, const sched::Schedule& s,
                       const platform::ClusterSpec& spec)
    : g_(g), s_(s), spec_(spec) {
  sched::validate_schedule(g, s, spec.num_nodes);
  const std::size_t n = g.num_tasks();
  const auto& edges = g.edges();
  out_edges_ = make_csr(n, [&](const auto& emit) {
    for (std::size_t i = 0; i < edges.size(); ++i) emit(edges[i].src, i);
  });
  in_edges_ = make_csr(n, [&](const auto& emit) {
    for (std::size_t i = 0; i < edges.size(); ++i) emit(edges[i].dst, i);
  });
  const sched::TaskLists opreds = sched::order_predecessors(g, s);
  order_preds_.resize(n);
  for (dag::TaskId t = 0; t < n; ++t) {
    order_preds_[t] = static_cast<int>(opreds[t].size());
  }
  order_succs_ = make_csr(n, [&](const auto& emit) {
    for (dag::TaskId t = 0; t < n; ++t) {
      for (dag::TaskId p : opreds[t]) emit(p, t);
    }
  });

  // Every transfer's usage, charged straight into one pool. Resource ids
  // depend only on the spec, so any runner's wiring of it agrees.
  ClusterLayout layout(spec);
  edge_uses_off_.reserve(edges.size() + 1);
  edge_uses_off_.push_back(0);
  edge_latency_.reserve(edges.size());
  for (const auto& e : edges) {
    edge_latency_.push_back(layout.redistribution_usage(
        g.task(e.src).matrix_dim, s.placement(e.src).procs,
        s.placement(e.dst).procs, edge_uses_));
    edge_uses_off_.push_back(edge_uses_.size());
  }
}

std::string ReplayPlan::name(Tag tag) const {
  switch (tag.kind) {
    case kStartupTag:
      return "startup_" + g_.task(tag.index).name;
    case kExecTag:
      return "exec_" + g_.task(tag.index).name;
    case kTaskTag:
      return g_.task(tag.index).name;
    case kOverheadTag:
      return "redist_overhead";
    case kTransferTag: {
      const dag::Edge& e = g_.edges()[tag.index];
      return "redist_" + std::to_string(e.src) + "_" + std::to_string(e.dst);
    }
    case kSubnetJobTag:
      return "subnet_manager_job";
    default:
      return "activity";
  }
}

ReplayRunner& thread_runner() {
  thread_local ReplayRunner runner;
  return runner;
}

ReplayRunner::Wiring::Wiring(const platform::ClusterSpec& spec)
    : cluster(engine, spec), fifo(engine, replay_tag(kSubnetJobTag)) {}

sched::RunTrace& ReplayRunner::run(const ReplayPlan& plan,
                                   const ReplayPolicy& policy) {
  if (!wiring_ || !(wiring_->cluster.spec() == plan.spec_)) {
    wiring_.emplace(plan.spec_);
    wiring_->engine.set_namer([this](Tag tag) { return plan_->name(tag); });
  }
  wiring_->engine.reset();
  wiring_->fifo.reset();
  plan_ = &plan;
  policy_ = &policy;
  const std::size_t n = plan.g_.num_tasks();
  const auto& edges = plan.g_.edges();
  // assign() keeps the capacity of a trace left in place; a trace the
  // caller moved out is rebuilt.
  trace_.tasks.assign(n, sched::TaskSpan{});
  trace_.edges.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    trace_.edges[i] = sched::EdgeSpan{edges[i].src, edges[i].dst};
  }
  trace_.makespan = 0.0;
  phase_.assign(n, Phase::Waiting);
  order_preds_left_.assign(plan.order_preds_.begin(), plan.order_preds_.end());
  edges_left_.resize(n);
  for (dag::TaskId t = 0; t < n; ++t) {
    edges_left_[t] = static_cast<int>(plan.in_edges_.size(t));
  }

  for (dag::TaskId t = 0; t < n; ++t) maybe_spawn(t);
  wiring_->engine.run();
  for (dag::TaskId t = 0; t < n; ++t) {
    MTSCHED_INVARIANT(phase_[t] == Phase::Done,
                      "replay finished with unexecuted tasks");
  }
  return trace_;
}

void ReplayRunner::maybe_spawn(dag::TaskId t) {
  if (phase_[t] != Phase::Waiting || order_preds_left_[t] > 0) return;
  phase_[t] = Phase::StartingUp;
  trace_.tasks[t].startup_begin = now();
  policy_->startup(t, [this, t](double) { on_up(t); });
}

void ReplayRunner::on_up(dag::TaskId t) {
  phase_[t] = Phase::Up;
  if (policy_->transfer_waits_for_consumer) {
    const auto& in = plan_->in_edges_;
    for (std::size_t k = in.off[t]; k < in.off[t + 1]; ++k) {
      maybe_request(in.items[k]);
    }
  }
  maybe_execute(t);
}

void ReplayRunner::maybe_execute(dag::TaskId t) {
  if (phase_[t] != Phase::Up || edges_left_[t] > 0) return;
  phase_[t] = Phase::Executing;
  trace_.tasks[t].exec_begin = now();
  policy_->execute(t, [this, t](double when) { on_done(t, when); });
}

void ReplayRunner::on_done(dag::TaskId t, double when) {
  phase_[t] = Phase::Done;
  trace_.tasks[t].finish = when;
  trace_.makespan = std::max(trace_.makespan, when);
  // Processor-order successors may now seize the released processors.
  const auto& succs = plan_->order_succs_;
  for (std::size_t k = succs.off[t]; k < succs.off[t + 1]; ++k) {
    const auto u = static_cast<dag::TaskId>(succs.items[k]);
    --order_preds_left_[u];
    maybe_spawn(u);
  }
  const auto& out = plan_->out_edges_;
  for (std::size_t k = out.off[t]; k < out.off[t + 1]; ++k) {
    maybe_request(out.items[k]);
  }
}

/// Requests a redistribution once its producer is done (and, when the
/// policy says so, its consumer is up). Each of the two conditions is
/// checked when it becomes true, so every edge is requested once.
void ReplayRunner::maybe_request(std::size_t edge) {
  const auto& e = plan_->g_.edges()[edge];
  if (phase_[e.src] != Phase::Done) return;
  if (policy_->transfer_waits_for_consumer && phase_[e.dst] < Phase::Up) {
    return;
  }
  trace_.edges[edge].request = now();
  policy_->overhead(edge,
                    [this, edge](double when) { transfer(edge, when); });
}

void ReplayRunner::transfer(std::size_t edge, double when) {
  trace_.edges[edge].transfer = when;
  const ReplayPlan& plan = *plan_;
  const std::span<const Use> uses(
      plan.edge_uses_.data() + plan.edge_uses_off_[edge],
      plan.edge_uses_off_[edge + 1] - plan.edge_uses_off_[edge]);
  // What ClusterSim::submit_ptask submits for the redistribution ptask:
  // empty usage (every message a local copy) is an instant timer.
  wiring_->engine.submit_borrowed(
      uses, uses.empty() ? 0.0 : 1.0, plan.edge_latency_[edge],
      [this, edge](double done_at) { transfer_done(edge, done_at); },
      replay_tag(kTransferTag, edge));
}

void ReplayRunner::transfer_done(std::size_t edge, double when) {
  trace_.edges[edge].done = when;
  const dag::TaskId consumer = plan_->g_.edges()[edge].dst;
  --edges_left_[consumer];
  maybe_execute(consumer);
}

}  // namespace mtsched::simcore
