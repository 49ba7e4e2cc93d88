// Equivalence sweep: the SoA engine against a naive scan-everything
// reference engine.
//
// The engine's structure-of-arrays layout (sorted delay calendar, dense
// id-ordered work class, incremental event lookahead) promises
// *bit-identical* observable behaviour to the straightforward
// array-of-structs engine it replaced: same completion order, same
// completion times, same resource consumption, double for double. This
// test reinstates the naive engine — every step rescans every activity,
// no calendar, no lookahead — and drives both from identical scripted
// workloads (timers, fluid work, latency+work, usage-free activities,
// chained submissions from completion callbacks), comparing the full
// observable sequence with exact floating-point equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mtsched/core/rng.hpp"
#include "mtsched/simcore/engine.hpp"
#include "mtsched/simcore/maxmin.hpp"

namespace {

using namespace mtsched;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;  // the engine's completion threshold

/// One observed completion: which scripted activity finished and when.
struct Completion {
  int spec = -1;
  double t = 0.0;

  bool operator==(const Completion&) const = default;
};

/// Scripted activity: submitted either up front or by the completion
/// callback of its parent.
struct ActSpec {
  std::vector<simcore::Use> uses;
  double amount = 0.0;
  double delay = 0.0;
  std::vector<int> children;  ///< spec indices submitted on completion
};

struct Workload {
  std::vector<double> capacities;
  std::vector<ActSpec> specs;
  std::vector<int> roots;  ///< spec indices submitted before run()
};

// --- naive reference engine ---------------------------------------------

/// Array-of-structs engine with the exact semantics of simcore::Engine:
/// same completion threshold, same rate solver fed in ascending-id order,
/// same "transitions do no work in their expiry step" rule, same
/// ascending-id completion order. Every step rescans every live activity.
class NaiveEngine {
 public:
  using CompletionFn = std::function<void(double)>;

  std::size_t add_resource(double capacity) {
    capacities_.push_back(capacity);
    usage_.push_back(0.0);
    return capacities_.size() - 1;
  }

  void submit(std::vector<simcore::Use> uses, double amount, double delay,
              CompletionFn on_complete) {
    Act a;
    a.id = next_id_++;
    a.uses = std::move(uses);
    a.rem = amount;
    a.cb = std::move(on_complete);
    rates_dirty_ = true;
    if (delay > 0.0) {
      a.in_latency = true;
      a.rem_delay = delay;
    } else {
      a.working = true;
      if (a.uses.empty()) {
        a.rate = kInf;
      } else {
        a.rate = 0.0;
        solve_dirty_ = true;
      }
    }
    acts_.push_back(std::move(a));  // ids are monotonic: stays id-sorted
  }

  void run() {
    while (step()) {
    }
  }

  double now() const { return now_; }
  std::uint64_t events_processed() const { return events_; }
  double resource_usage(std::size_t r) const { return usage_[r]; }

 private:
  struct Act {
    std::uint64_t id = 0;
    std::vector<simcore::Use> uses;
    double rem_delay = 0.0;
    double rem = 0.0;
    double rate = 0.0;
    bool in_latency = false;
    bool working = false;
    bool fresh = false;  ///< entered the work phase this step
    bool done = false;
    CompletionFn cb;
  };

  bool step() {
    if (acts_.empty()) return false;
    if (rates_dirty_) {
      if (solve_dirty_) solve();
      rates_dirty_ = false;
    }

    // Next event: full scan over every live activity.
    double dt = kInf;
    for (const Act& a : acts_) {
      if (a.in_latency) {
        dt = std::min(dt, a.rem_delay);
      } else if (a.rem <= kEps || a.uses.empty() || std::isinf(a.rate)) {
        dt = 0.0;
      } else {
        dt = std::min(dt, a.rem / a.rate);
      }
    }
    EXPECT_TRUE(std::isfinite(dt));
    now_ += dt;

    // Latency phase, ascending id: expire, transition, complete the
    // activities with nothing left to do.
    for (Act& a : acts_) {
      if (!a.in_latency) continue;
      a.rem_delay -= dt;
      if (a.rem_delay > kEps) continue;
      a.in_latency = false;
      a.working = true;
      rates_dirty_ = true;
      if (!a.uses.empty()) solve_dirty_ = true;
      if (a.rem <= kEps || a.uses.empty()) {
        a.done = true;
      } else {
        a.rate = 0.0;
        a.fresh = true;  // no work in the expiry step
      }
    }

    // Work phase, ascending id: advance, account consumption, complete.
    for (Act& a : acts_) {
      if (!a.working || a.fresh || a.done || a.in_latency) continue;
      if (!a.uses.empty() && !std::isinf(a.rate)) {
        a.rem -= a.rate * dt;
        for (const auto& u : a.uses) {
          usage_[u.resource] += u.weight * a.rate * dt;
        }
      }
      if (a.rem <= kEps || a.uses.empty() || std::isinf(a.rate)) {
        a.done = true;
      }
    }
    for (Act& a : acts_) a.fresh = false;

    // Completions, ascending id: bookkeeping first, then callbacks, then
    // removal — callbacks may submit new activities.
    std::vector<CompletionFn> callbacks;
    for (Act& a : acts_) {
      if (!a.done) continue;
      if (!a.uses.empty()) solve_dirty_ = true;
      rates_dirty_ = true;
      ++events_;
      callbacks.push_back(std::move(a.cb));
    }
    std::erase_if(acts_, [](const Act& a) { return a.done; });
    for (auto& cb : callbacks) {
      if (cb) cb(now_);
    }
    return true;
  }

  void solve() {
    // CSR over working activities with usage, ascending id — exactly the
    // view the SoA engine hands the shared solver.
    std::vector<std::uint32_t> off{0};
    std::vector<std::uint32_t> res;
    std::vector<double> w;
    std::vector<Act*> rows;
    for (Act& a : acts_) {
      if (!a.working || a.uses.empty()) continue;
      for (const auto& u : a.uses) {
        res.push_back(static_cast<std::uint32_t>(u.resource));
        w.push_back(u.weight);
      }
      off.push_back(static_cast<std::uint32_t>(res.size()));
      rows.push_back(&a);
    }
    if (!rows.empty()) {
      std::vector<double> rates(rows.size());
      solver_.solve(std::span<const double>(capacities_),
                    simcore::UsesView{off, res, w}, std::span<double>(rates));
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i]->rate = rates[i];
    }
    solve_dirty_ = false;
  }

  std::vector<double> capacities_;
  std::vector<double> usage_;
  std::vector<Act> acts_;  ///< live activities, ascending id
  simcore::MaxMinSolver solver_;
  double now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t events_ = 0;
  bool rates_dirty_ = false;
  bool solve_dirty_ = false;
};

// --- workload scripting --------------------------------------------------

Workload random_workload(std::uint64_t seed, int num_roots) {
  core::Rng rng(seed);
  Workload wl;
  const int R = static_cast<int>(rng.uniform_int(2, 6));
  for (int r = 0; r < R; ++r) wl.capacities.push_back(rng.uniform(1.0, 10.0));

  // Specs form a forest: roots plus up to two generations of children
  // submitted from completion callbacks.
  const auto make_spec = [&](int depth, const auto& self) -> int {
    ActSpec s;
    const std::int64_t kind = rng.uniform_int(0, 5);
    if (kind == 0) {  // pure timer
      s.delay = rng.uniform(0.01, 2.0);
    } else if (kind == 1) {  // usage-free work: completes immediately
      s.amount = rng.uniform(0.1, 2.0);
    } else if (kind == 2) {  // zero-amount work holding resources
      s.delay = rng.uniform(0.0, 1.0);
      s.uses.push_back({static_cast<std::size_t>(rng.uniform_int(0, R - 1)),
                        rng.uniform(0.1, 2.0)});
    } else {  // fluid work, possibly after a latency phase
      s.amount = rng.uniform(0.1, 5.0);
      s.delay = kind == 3 ? 0.0 : rng.uniform(0.01, 1.5);
      const int nuses = static_cast<int>(rng.uniform_int(1, 3));
      for (int u = 0; u < nuses; ++u) {
        s.uses.push_back({static_cast<std::size_t>(rng.uniform_int(0, R - 1)),
                          rng.uniform(0.1, 2.0)});
      }
    }
    const int idx = static_cast<int>(wl.specs.size());
    wl.specs.push_back(std::move(s));
    if (depth < 2) {
      const std::int64_t kids = rng.uniform_int(0, 2);
      for (std::int64_t k = 0; k < kids; ++k) {
        const int child = self(depth + 1, self);
        wl.specs[static_cast<std::size_t>(idx)].children.push_back(child);
      }
    }
    return idx;
  };
  for (int i = 0; i < num_roots; ++i) {
    wl.roots.push_back(make_spec(0, make_spec));
  }
  return wl;
}

/// Runs `wl` on either engine through a uniform submit interface.
template <typename EngineT>
struct Driver {
  EngineT& engine;
  const Workload& wl;
  std::vector<Completion> completions;

  void submit_spec(int idx) {
    const ActSpec& s = wl.specs[static_cast<std::size_t>(idx)];
    engine.submit(s.uses, s.amount, s.delay, [this, idx](double t) {
      completions.push_back({idx, t});
      for (const int child : wl.specs[static_cast<std::size_t>(idx)].children) {
        submit_spec(child);
      }
    });
  }

  void run() {
    for (const int root : wl.roots) submit_spec(root);
    engine.run();
  }
};

/// Runs `wl` on both engines and expects the same observable sequence;
/// returns the SoA engine's completions. `what` labels failures.
std::vector<Completion> expect_equivalent(const Workload& wl,
                                          const std::string& what) {
  simcore::Engine soa;
  NaiveEngine naive;
  for (const double c : wl.capacities) {
    soa.add_resource(c);
    naive.add_resource(c);
  }
  Driver<simcore::Engine> ds{soa, wl, {}};
  Driver<NaiveEngine> dn{naive, wl, {}};
  ds.run();
  dn.run();

  // Exact equality throughout: same completion order, and every time and
  // usage total identical to the last bit.
  EXPECT_EQ(ds.completions.size(), dn.completions.size()) << what;
  const std::size_t n =
      std::min(ds.completions.size(), dn.completions.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ds.completions[i].spec, dn.completions[i].spec)
        << what << " completion " << i;
    EXPECT_EQ(ds.completions[i].t, dn.completions[i].t)
        << what << " completion " << i;
  }
  EXPECT_EQ(soa.now(), naive.now()) << what;
  EXPECT_EQ(soa.events_processed(), naive.events_processed()) << what;
  for (std::size_t r = 0; r < wl.capacities.size(); ++r) {
    EXPECT_EQ(soa.resource_usage(r), naive.resource_usage(r))
        << what << " resource " << r;
  }
  return ds.completions;
}

void expect_equivalent(std::uint64_t seed, int num_roots) {
  expect_equivalent(random_workload(seed, num_roots),
                    "seed " + std::to_string(seed));
}

// --- the sweep -----------------------------------------------------------

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, SoaMatchesNaiveReferenceBitForBit) {
  expect_equivalent(GetParam(), 60);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, EngineEquivalence,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(EngineEquivalence, PaperScaleWorkload) {
  // ~1500 specs live through the run: the scale of a full Table-I
  // campaign's simulation stage in one engine instance.
  expect_equivalent(99u, 500);
}

TEST(EngineEquivalence, DeterministicAcrossRuns) {
  const Workload wl = random_workload(7u, 40);
  std::vector<Completion> first;
  for (int round = 0; round < 2; ++round) {
    simcore::Engine e;
    for (const double c : wl.capacities) e.add_resource(c);
    Driver<simcore::Engine> d{e, wl, {}};
    d.run();
    if (round == 0) {
      first = d.completions;
    } else {
      EXPECT_EQ(first, d.completions);
    }
  }
}

// --- deterministic cases -------------------------------------------------
// Each pins one shortcut of the engine against the solver-only reference.

/// A timer of `delay` seconds submitting `children` on completion.
ActSpec timer(double delay, std::vector<int> children = {}) {
  ActSpec s;
  s.delay = delay;
  s.children = std::move(children);
  return s;
}

/// Work `amount` over `uses` after a latency phase of `delay`.
ActSpec flow(std::vector<simcore::Use> uses, double amount, double delay,
             std::vector<int> children = {}) {
  ActSpec s;
  s.uses = std::move(uses);
  s.amount = amount;
  s.delay = delay;
  s.children = std::move(children);
  return s;
}

TEST(EngineEquivalence, LoneClusterShapedFlowAmongTimers) {
  // bayreuth32's resource layout: per node cpu, uplink and downlink, then
  // the switch fabric. A redistribution charges ~20 links by ascending
  // id, and most of the time it is the only flow: its rate comes from the
  // single-flow shortcut, not the solver.
  Workload wl;
  for (int node = 0; node < 32; ++node) {
    wl.capacities.insert(wl.capacities.end(), {250e6, 125e6, 125e6});
  }
  wl.capacities.push_back(2e9);
  const auto redistribution = [](int first_src, int first_dst, double bytes) {
    std::vector<simcore::Use> uses;
    for (int k = 0; k < 4; ++k) {
      uses.push_back({static_cast<std::size_t>(3 * (first_src + k) + 1),
                      bytes * (1.0 + 0.25 * k)});
    }
    for (int k = 0; k < 15; ++k) {
      uses.push_back({static_cast<std::size_t>(3 * (first_dst + k) + 2),
                      bytes * (0.5 + 0.1 * k)});
    }
    uses.push_back({96, bytes * 20.0});
    return uses;
  };
  wl.specs = {
      flow(redistribution(0, 4, 1.3e6), 1.0, 1e-4, {1}),  // 0
      flow(redistribution(8, 16, 0.7e6), 1.0, 1e-4, {2}),  // 1
      timer(0.004),                                        // 2
      timer(0.003, {4}),                                   // 3
      timer(0.005),                                        // 4
      timer(0.011, {6}),                                   // 5
      flow(redistribution(1, 12, 0.9e6), 1.0, 1e-4),       // 6: overlaps 1
      timer(0.02),                                         // 7
  };
  wl.roots = {0, 3, 5, 7};
  for (const auto& s : wl.specs) {
    for (std::size_t k = 1; k < s.uses.size(); ++k) {
      ASSERT_LT(s.uses[k - 1].resource, s.uses[k].resource);
    }
  }
  const auto done = expect_equivalent(wl, "cluster-shaped flow");
  EXPECT_EQ(done.size(), wl.specs.size());
}

TEST(EngineEquivalence, LoneFlowWithDuplicatedResourceTakesTheSolver) {
  // Resource 1 is listed twice: its load is the weights' sum, 2 + 2, so
  // the rate is min(8 / 4, 16 / 1) = 2, not min(8 / 2, 16 / 1) = 4.
  Workload wl;
  wl.capacities = {4.0, 8.0, 16.0};
  wl.specs = {flow({{1, 2.0}, {1, 2.0}, {2, 1.0}}, 3.0, 0.0), timer(0.5)};
  wl.roots = {0, 1};
  const auto done = expect_equivalent(wl, "duplicated resource");
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], (Completion{0, 1.5}));
}

TEST(EngineEquivalence, LoneFlowWithDescendingResourcesTakesTheSolver) {
  Workload wl;
  wl.capacities = {4.0, 8.0, 16.0};
  wl.specs = {flow({{2, 1.0}, {0, 4.0}}, 2.0, 0.25), timer(0.5)};
  wl.roots = {0, 1};
  const auto done = expect_equivalent(wl, "descending resources");
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], (Completion{0, 2.25}));  // rate min(16 / 1, 4 / 4)
}

TEST(EngineEquivalence, SingleLatencyEntryTiesAnExistingRemainder) {
  // A (2 s) is pending the whole run. W's completion at 0.5 s submits
  // D (1.5 s) before any entry has expired; B's expiry at 1 s submits
  // C (1 s) behind the consumed entry. Both tie A's remainder exactly,
  // so A, D and C expire together at 2 s and complete in id order.
  Workload wl;
  wl.capacities = {1.0};
  wl.specs = {
      timer(2.0),                     // 0: A
      timer(1.0, {2}),                // 1: B
      timer(1.0),                     // 2: C
      flow({{0, 1.0}}, 0.5, 0.0, {4}),  // 3: W
      timer(1.5),                     // 4: D
  };
  wl.roots = {0, 1, 3};
  const auto done = expect_equivalent(wl, "latency tie");
  const std::vector<Completion> want = {
      {3, 0.5}, {1, 1.0}, {0, 2.0}, {4, 2.0}, {2, 2.0}};
  EXPECT_EQ(done, want);
}

}  // namespace
