// Discrete-event simulation engine with fluid (flow-level) activities.
//
// The engine advances virtual time between *rate change points*: whenever
// the set of active activities changes, the max-min fair rates are
// recomputed and the next completion is scheduled. This is the same
// operating principle as SimGrid's surf/ptask layer.
//
// An activity has two phases:
//   1. a latency phase of fixed duration `delay` consuming no resources
//      (models end-to-end network latency, charged once per activity as in
//      SimGrid's L07 model — and doubles as a plain timer facility);
//   2. a work phase that performs `amount` units of work at the max-min
//      fair rate determined by its resource usage vector.
// Activities with an empty usage vector complete right after their delay.
//
// Completion callbacks run inside run()/step() and may submit further
// activities; this is how schedule replay drives the simulation forward.
//
// Hot-path layout (structure-of-arrays): per-activity state lives in
// parallel flat arrays split by phase class, not in an array of structs.
//   * The latency class is kept sorted by remaining delay and consumed
//     from the front: the per-step clock advance is one contiguous
//     auto-vectorizable subtract over doubles, expiries are a prefix pop
//     (sortedness is invariant under a uniform subtract — IEEE float
//     subtraction of the same dt is weakly monotonic), and the next
//     latency event is simply the front survivor. No per-element
//     branching, no compaction scan.
//     A single new entry is inserted at its upper bound (equal
//     remainders keep older activities first); several are sorted and
//     merged in one backward pass.
//   * The work class is a dense id-sorted set of parallel arrays
//     (remaining work, rate, usage-list extent): the fused step pass
//     streams them linearly, and the max-min solve consumes the usage
//     lists as one CSR view (see maxmin.hpp). When exactly one working
//     activity has a usage list — most solves of a schedule replay — and
//     its resource ids strictly ascend (as ClusterLayout emits them), its
//     rate is the minimum of capacity / weight over its uses: exactly
//     what progressive filling computes in its first and only round over
//     distinct resources, so the gather and the solver are skipped. Any
//     other list goes through the solver.
//   * Cold per-activity state (tag, callback, usage list) is slot-slab
//     indexed and only touched at submit/transition/completion; a copied
//     usage list is bump-allocated from the engine's core::Arena, a
//     borrowed one (submit_borrowed) is referenced where it lives.
//   * Names are lazy: activities carry a (kind, index) Tag; strings are
//     formatted only when a trace track is attached (through the namer).
// reset() rewinds the clock and drops every activity but keeps the
// resources and every buffer's capacity, so an engine replayed again and
// again (a simcore::ReplayRunner) runs with no steady-state heap allocation.
// Expiries, transitions and completions from the two classes are merged
// back into ascending-id order before callbacks and trace emission, so
// every observable sequence — event times, rates, resource usage, traces
// — is bit-identical to the naive scan-everything engine.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mtsched/core/arena.hpp"
#include "mtsched/obs/metrics.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/simcore/maxmin.hpp"

namespace mtsched::simcore {

using ResourceId = std::size_t;
using ActivityId = std::uint64_t;

/// Called when an activity completes; receives the completion time.
using CompletionFn = std::function<void(double now)>;

/// Names an activity in traces. The engine only stores it; the namer
/// (Engine::set_namer) turns it into a string, and only when a trace track
/// is attached. Kind 0 is an unnamed activity ("activity#<id>").
struct Tag {
  std::uint32_t kind = 0;
  std::uint32_t index = 0;
};
using Namer = std::function<std::string(Tag)>;

class Engine {
 public:
  /// Captures the calling thread's ambient obs context: activity
  /// state-transition and reshare events go to obs::current_track(),
  /// event/reshare totals to obs::current_metrics(). Both default to
  /// disabled, which costs one branch per emission site.
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Formats activity tags into trace names (see Tag).
  void set_namer(Namer namer) { namer_ = std::move(namer); }

  /// Returns to time zero with no activity and zeroed usage totals, as if
  /// freshly constructed with the same resources, and re-captures the
  /// calling thread's obs context. Keeps every buffer's capacity.
  void reset();

  /// Registers a resource with the given positive capacity.
  ResourceId add_resource(double capacity);

  std::size_t num_resources() const { return capacities_.size(); }
  double capacity(ResourceId r) const;

  /// Submits an activity. `uses` lists resource usage weights (all > 0),
  /// `amount` is the work in the same units as the weights' numerators
  /// (the L07 convention: amount = 1, weights = absolute totals), `delay`
  /// is the latency phase duration. Either may be zero. The uses are
  /// copied into the engine's pool.
  ActivityId submit(std::span<const Use> uses, double amount, double delay,
                    CompletionFn on_complete, Tag tag = {});

  /// Like submit, but the engine refers to `uses` instead of copying them:
  /// they must stay valid and unchanged until the activity completes or
  /// the engine is reset (a ReplayPlan's precomputed transfer usage).
  ActivityId submit_borrowed(std::span<const Use> uses, double amount,
                             double delay, CompletionFn on_complete,
                             Tag tag = {});

  /// Convenience: a pure timer firing after `duration` seconds.
  ActivityId submit_timer(double duration, CompletionFn on_complete,
                          Tag tag = {});

  /// Runs until no activity remains. Throws core::InternalError if the
  /// event count exceeds `max_events` (runaway guard).
  void run(std::uint64_t max_events = 100'000'000);

  /// Processes the next event batch; returns false when nothing is active.
  bool step();

  double now() const { return now_; }
  std::size_t num_active() const { return live_; }
  std::uint64_t events_processed() const { return events_; }

  /// Total units consumed on a resource so far (flops or bytes).
  double resource_usage(ResourceId r) const;

 private:
  /// Reshare bookkeeping at the head of a step: emits the reshare
  /// trace/metric and, only when the working usage multiset actually
  /// changed, re-solves the max-min rates (over the CSR usage view of the
  /// work class) and refreshes the work-phase event lookahead.
  void reshare();
  /// The lone-flow shortcut of the solve (see the header comment): sets
  /// the flow's rate and returns true when it applies, otherwise returns
  /// false and touches nothing.
  bool rate_lone_flow();
  /// Folds buffered latency-phase submissions into the sorted delay
  /// calendar (a single entry is inserted at its upper bound, several are
  /// sorted and merged backward; ties keep older activities first).
  void merge_pending();
  /// Drops the consumed prefix of the delay calendar (amortized O(1)).
  void compact_delay();
  void trace_state(std::uint32_t slot, const char* state);
  /// Points the trace and metric counters at the calling thread's ambient
  /// obs context.
  void capture_context();

  obs::Track trace_;
  Namer namer_;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* reshares_counter_ = nullptr;
  double now_ = 0.0;
  ActivityId next_id_ = 1;
  std::uint64_t events_ = 0;
  std::vector<double> capacities_;
  std::vector<double> usage_;

  /// Bump arena backing copied usage lists and the solver's CSR build;
  /// rewound by reset().
  core::Arena arena_;

  // --- cold per-activity state, slot-slab indexed ------------------------
  std::vector<ActivityId> slot_id_;
  std::vector<Tag> slot_tag_;
  std::vector<CompletionFn> slot_cb_;
  std::vector<const Use*> slot_uses_;  ///< arena copy or borrowed list
  std::vector<std::uint32_t> slot_uses_len_;
  std::vector<double> slot_amount_;  ///< remaining work while in latency phase
  std::vector<std::uint32_t> free_slots_;


  // --- latency class: parallel arrays sorted by remaining delay ----------
  std::vector<double> d_rem_;
  std::vector<std::uint32_t> d_slot_;
  std::size_t d_head_ = 0;  ///< consumed prefix (expired entries)

  // Latency submissions buffered since the last step head; merged into the
  // sorted calendar before the next clock advance.
  std::vector<double> pend_rem_;
  std::vector<std::uint32_t> pend_slot_;
  std::vector<std::uint32_t> pend_perm_;  ///< merge-sort permutation scratch

  // --- work class: parallel arrays in ascending-id order -----------------
  std::vector<ActivityId> w_id_;
  std::vector<double> w_rem_;
  std::vector<double> w_rate_;
  std::vector<std::uint32_t> w_slot_;
  std::vector<std::uint32_t> w_len_;

  std::size_t live_ = 0;         ///< total live activities (all classes)
  std::size_t num_working_ = 0;  ///< live activities past their delay phase

  /// The active set changed: reshare bookkeeping runs at the next step
  /// (this is exactly the old engine's recompute trigger).
  bool rates_dirty_ = false;
  /// The *working usage multiset* changed: the max-min solve cannot be
  /// skipped. rates_dirty_ without solve_dirty_ is the fast path — rates
  /// carry over unchanged.
  bool solve_dirty_ = false;

  // Event calendar: the earliest candidate event time-delta per class,
  // maintained incrementally. The delay minimum is the front survivor of
  // the sorted latency class; the work minimum is refreshed by the fused
  // step pass (and by reshare() after a solve); submit_min_ collects
  // candidates of activities submitted since the last step head. dt = min
  // of the three, bit-identical to a full scan.
  double delay_min_;
  double work_min_;
  double submit_min_;

  // Solve + step scratch (allocated once, reused every step).
  MaxMinSolver solver_;
  core::ArenaVector<std::uint32_t> csr_off_{arena_};
  core::ArenaVector<std::uint32_t> csr_res_{arena_};
  core::ArenaVector<double> csr_w_{arena_};
  core::ArenaVector<double> csr_rates_{arena_};
  core::ArenaVector<std::uint32_t> csr_map_{arena_};  ///< CSR row → work index
  std::vector<std::uint32_t> expired_;     ///< this step's latency expiries
  std::vector<std::uint32_t> trans_slot_;  ///< expiries entering the work class
  std::vector<double> trans_rem_;
  std::vector<std::uint32_t> done_delay_;  ///< completions straight from delay
  std::vector<std::uint32_t> done_work_;   ///< completions from the work pass
  std::vector<std::uint32_t> completed_;   ///< merged, ascending id
  std::vector<CompletionFn> callbacks_;
};

}  // namespace mtsched::simcore
