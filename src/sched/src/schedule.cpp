#include "mtsched/sched/schedule.hpp"

#include <algorithm>
#include <queue>
#include <string>

#include "mtsched/core/error.hpp"

namespace mtsched::sched {

const TaskPlacement& Schedule::placement(dag::TaskId t) const {
  MTSCHED_REQUIRE(t < placements.size(), "task has no placement");
  return placements[t];
}

std::vector<int> Schedule::allocation() const {
  std::vector<int> a;
  a.reserve(placements.size());
  for (const auto& p : placements) a.push_back(static_cast<int>(p.procs.size()));
  return a;
}

namespace {
constexpr double kTimeTol = 1e-9;
}  // namespace

void validate_schedule(const dag::Dag& g, const Schedule& s, int num_procs) {
  MTSCHED_REQUIRE(s.placements.size() == g.num_tasks(),
                  "schedule must place every task exactly once");
  MTSCHED_REQUIRE(s.proc_order.size() == static_cast<std::size_t>(num_procs),
                  "schedule must carry one order per processor");

  // Placement sanity, counting the tasks placed on each processor; the
  // processor -> tasks relation is then one flat CSR, on_proc. Tasks are
  // visited in increasing id, so every row comes out sorted and
  // duplicate-free and the cross-check against an order is a plain range
  // comparison — no per-processor containers on this path, it runs after
  // every mapping call and in every replay compile.
  const auto P = static_cast<std::size_t>(num_procs);
  std::vector<std::size_t> off(P + 1, 0);
  std::vector<int> scratch;
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    const auto& pl = s.placements[t];
    MTSCHED_REQUIRE(!pl.procs.empty(), "task " + std::to_string(t) +
                                           " has an empty allocation");
    if (std::is_sorted(pl.procs.begin(), pl.procs.end())) {
      // All mappers emit id-sorted placements, so this path is the norm.
      MTSCHED_REQUIRE(std::adjacent_find(pl.procs.begin(), pl.procs.end()) ==
                          pl.procs.end(),
                      "task " + std::to_string(t) +
                          " lists a processor more than once");
    } else {
      scratch.assign(pl.procs.begin(), pl.procs.end());
      std::sort(scratch.begin(), scratch.end());
      MTSCHED_REQUIRE(
          std::adjacent_find(scratch.begin(), scratch.end()) == scratch.end(),
          "task " + std::to_string(t) + " lists a processor more than once");
    }
    for (int pr : pl.procs) {
      MTSCHED_REQUIRE(pr >= 0 && pr < num_procs,
                      "task " + std::to_string(t) +
                          " placed on out-of-range processor");
      ++off[static_cast<std::size_t>(pr) + 1];
    }
    MTSCHED_REQUIRE(pl.est_finish >= pl.est_start - kTimeTol,
                    "task " + std::to_string(t) + " finishes before it starts");
  }
  for (std::size_t pr = 0; pr < P; ++pr) off[pr + 1] += off[pr];
  std::vector<dag::TaskId> on_proc(off[P]);
  // Fill through off[pr] as a cursor, which leaves off[pr] at the old
  // off[pr + 1]: the row of pr is then on_proc[off[pr - 1] .. off[pr]),
  // starting at 0 for pr = 0.
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    for (int pr : s.placements[t].procs) {
      on_proc[off[static_cast<std::size_t>(pr)]++] = t;
    }
  }
  std::vector<dag::TaskId> in_order;
  for (int pr = 0; pr < num_procs; ++pr) {
    const auto& order = s.proc_order[static_cast<std::size_t>(pr)];
    in_order.assign(order.begin(), order.end());
    std::sort(in_order.begin(), in_order.end());
    MTSCHED_REQUIRE(
        std::adjacent_find(in_order.begin(), in_order.end()) == in_order.end(),
        "processor order lists a task twice");
    const auto row = static_cast<std::size_t>(pr);
    const auto row_begin = on_proc.begin() + static_cast<std::ptrdiff_t>(
                                                 row == 0 ? 0 : off[row - 1]);
    const auto row_end =
        on_proc.begin() + static_cast<std::ptrdiff_t>(off[row]);
    MTSCHED_REQUIRE(std::equal(in_order.begin(), in_order.end(), row_begin,
                               row_end),
                    "processor " + std::to_string(pr) +
                        " order disagrees with task placements");
    // No overlap between consecutive tasks on this processor.
    for (std::size_t i = 1; i < order.size(); ++i) {
      const auto& prev = s.placements[order[i - 1]];
      const auto& next = s.placements[order[i]];
      MTSCHED_REQUIRE(next.est_start >= prev.est_finish - kTimeTol,
                      "tasks overlap on processor " + std::to_string(pr));
    }
  }
  // Precedence on predicted times.
  for (const auto& e : g.edges()) {
    MTSCHED_REQUIRE(
        s.placements[e.dst].est_start >=
            s.placements[e.src].est_finish - kTimeTol,
        "task " + std::to_string(e.dst) + " starts before predecessor " +
            std::to_string(e.src) + " finishes");
  }
  // Deadlock-freedom of the combined relation.
  (void)replay_order(g, s);
}

std::vector<dag::TaskId> replay_order(const dag::Dag& g, const Schedule& s) {
  const std::size_t n = g.num_tasks();
  // Successors of the combined relation (DAG edges plus per-processor
  // chains) in CSR form: one counting pass, one prefix sum, one fill.
  std::vector<std::size_t> off(n + 1, 0);
  std::vector<std::size_t> indeg(n, 0);
  auto count = [&](dag::TaskId a, dag::TaskId b) {
    ++off[a + 1];
    ++indeg[b];
  };
  for (const auto& e : g.edges()) count(e.src, e.dst);
  for (const auto& order : s.proc_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      count(order[i - 1], order[i]);
    }
  }
  for (std::size_t t = 0; t < n; ++t) off[t + 1] += off[t];
  std::vector<dag::TaskId> succ(off[n]);
  std::vector<std::size_t> fill(off.begin(), off.end() - 1);
  auto add = [&](dag::TaskId a, dag::TaskId b) { succ[fill[a]++] = b; };
  for (const auto& e : g.edges()) add(e.src, e.dst);
  for (const auto& order : s.proc_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      add(order[i - 1], order[i]);
    }
  }

  std::vector<dag::TaskId> heap;
  heap.reserve(n);
  std::priority_queue<dag::TaskId, std::vector<dag::TaskId>, std::greater<>>
      ready(std::greater<>{}, std::move(heap));
  for (dag::TaskId t = 0; t < n; ++t)
    if (indeg[t] == 0) ready.push(t);
  std::vector<dag::TaskId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const dag::TaskId t = ready.top();
    ready.pop();
    order.push_back(t);
    for (std::size_t e = off[t]; e < off[t + 1]; ++e)
      if (--indeg[succ[e]] == 0) ready.push(succ[e]);
  }
  MTSCHED_REQUIRE(order.size() == n,
                  "DAG edges plus processor orders contain a cycle "
                  "(replay would deadlock)");
  return order;
}

TaskLists order_predecessors(const dag::Dag& g, const Schedule& s) {
  // One counting pass over the consecutive pairs of every processor order,
  // one fill, then each row sorted and de-duplicated in place.
  const std::size_t n = g.num_tasks();
  TaskLists out;
  out.off.assign(n + 1, 0);
  for (const auto& order : s.proc_order) {
    for (std::size_t i = 1; i < order.size(); ++i) ++out.off[order[i] + 1];
  }
  for (std::size_t t = 0; t < n; ++t) out.off[t + 1] += out.off[t];
  out.items.resize(out.off[n]);
  std::vector<std::size_t> fill(out.off.begin(), out.off.end() - 1);
  for (const auto& order : s.proc_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      out.items[fill[order[i]]++] = order[i - 1];
    }
  }
  std::size_t kept = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const auto first =
        out.items.begin() + static_cast<std::ptrdiff_t>(out.off[t]);
    const auto last =
        out.items.begin() + static_cast<std::ptrdiff_t>(out.off[t + 1]);
    std::sort(first, last);
    const auto uniq = std::unique(first, last);
    out.off[t] = kept;
    kept = static_cast<std::size_t>(
        std::move(first, uniq,
                  out.items.begin() + static_cast<std::ptrdiff_t>(kept)) -
        out.items.begin());
  }
  out.off[n] = kept;
  out.items.resize(kept);
  return out;
}

}  // namespace mtsched::sched
