// Schedule replay core, shared by the simulator (sim::Simulator) and the
// execution-framework emulator (tgrid::TGridEmulator).
//
// Both replays walk the same TGrid task lifecycle; they differ only in
// what each phase costs. The core owns the lifecycle:
//   * a task seizes its processors (its startup phase begins) once every
//     task preceding it in any of its processors' orders has finished;
//   * when a task finishes, each of its output redistributions is
//     requested: the protocol overhead elapses first, then the payload is
//     transferred through the cluster as a communication-only activity
//     charged like the block redistribution ptask, contention included;
//   * a task executes once its startup is over and all inbound
//     redistributions are done;
//   * every stamp of the RunTrace, and the makespan (the completion time
//     of the last task).
// The front end supplies a ReplayPolicy: one hook per phase cost, each
// submitting its own activity, plus the one sequencing difference.
//
// A ReplayPlan is one schedule compiled for one platform: everything that
// does not depend on the phase costs (validation, order and edge
// adjacency, every redistribution's usage and latency in one flat pool).
// It is immutable, so threads share it. A ReplayRunner holds what a replay
// mutates (the wired engine, per-task phases and counters, the trace) and
// runs any plan with any policy; a warmed-up run makes no heap allocation,
// so the experiment seeds of a schedule (Section VII-A) pay only for their
// events, and its simulation may share the plan (Sections IV and VII-A).
//
// Release order is fixed, so replays are deterministic: processor-order
// successors are released by ascending task id, output and input
// redistributions by DAG edge index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mtsched/dag/dag.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/schedule.hpp"
#include "mtsched/sched/trace.hpp"
#include "mtsched/simcore/cluster_sim.hpp"
#include "mtsched/simcore/engine.hpp"
#include "mtsched/simcore/fifo.hpp"

namespace mtsched::simcore {

/// Tag kinds of replay activities. A runner's engine formats them from the
/// plan's DAG, and only when a trace track is attached.
enum ReplayTag : std::uint32_t {
  kStartupTag = 1,  ///< "startup_<task name>"; index: task
  kExecTag,         ///< "exec_<task name>"; index: task
  kTaskTag,         ///< "<task name>"; index: task
  kOverheadTag,     ///< "redist_overhead"
  kTransferTag,     ///< "redist_<src>_<dst>"; index: edge
  kSubnetJobTag,    ///< "subnet_manager_job"
};

inline Tag replay_tag(ReplayTag kind, std::size_t index = 0) {
  return Tag{kind, static_cast<std::uint32_t>(index)};
}

/// The phase costs of one replay. Each hook starts its phase for one task
/// or edge and calls `done` exactly once, with the completion time, when
/// the phase is over (immediately, with the current time, for a phase
/// that takes no time).
struct ReplayPolicy {
  /// Startup of task `t`, which has just seized its processors.
  std::function<void(dag::TaskId t, CompletionFn done)> startup;
  /// Execution of task `t`, which has all of its inputs.
  std::function<void(dag::TaskId t, CompletionFn done)> execute;
  /// Protocol overhead of DAG edge `edge` before its payload transfer.
  std::function<void(std::size_t edge, CompletionFn done)> overhead;
  /// When true, a redistribution is requested only once its consumer's
  /// startup is over too (TGrid: the consumer's processes must exist to
  /// register with the subnet manager). When false, it is requested as
  /// soon as its producer finishes.
  bool transfer_waits_for_consumer = false;
};

/// One schedule compiled for replay on one platform. Immutable: any number
/// of runners, on any threads, may replay it at once.
class ReplayPlan {
 public:
  /// Validates `s` against `g` and `spec` (sched::validate_schedule,
  /// throws core::InvalidArgument) and does the seed-independent work.
  /// `g` and `s` must outlive the plan.
  ReplayPlan(const dag::Dag& g, const sched::Schedule& s,
             const platform::ClusterSpec& spec);
  ReplayPlan(const ReplayPlan&) = delete;

  const dag::Dag& dag() const { return g_; }
  const sched::Schedule& schedule() const { return s_; }
  /// The platform the plan was compiled for.
  const platform::ClusterSpec& spec() const { return spec_; }

 private:
  friend class ReplayRunner;

  std::string name(Tag tag) const;

  /// Flat adjacency lists (CSR): row r holds items[off[r] .. off[r + 1]).
  struct Csr {
    std::vector<std::size_t> off;
    std::vector<std::size_t> items;

    std::size_t size(std::size_t r) const { return off[r + 1] - off[r]; }
  };
  template <typename Visit>
  static Csr make_csr(std::size_t n, const Visit& visit);

  const dag::Dag& g_;
  const sched::Schedule& s_;
  platform::ClusterSpec spec_;
  Csr out_edges_;    ///< task -> out-edge indices, ascending
  Csr in_edges_;     ///< task -> in-edge indices, ascending
  Csr order_succs_;  ///< task -> processor-order successors, ascending id
  std::vector<int> order_preds_;            ///< distinct order predecessors
  std::vector<std::size_t> edge_uses_off_;  ///< edge -> its uses in edge_uses_
  std::vector<Use> edge_uses_;              ///< every transfer's usage weights
  std::vector<double> edge_latency_;
};

/// The mutable half of a replay: runs plans one after another. Not
/// thread-safe; give each thread its own.
class ReplayRunner {
 public:
  /// What the hooks submit to: the engine, the cluster and a FIFO server
  /// tagged kSubnetJobTag (TGrid's subnet manager), wired for the plan
  /// being run and reset by every run(); valid once a run has started.
  Engine& engine() { return wiring_->engine; }
  ClusterSim& cluster() { return wiring_->cluster; }
  FifoServer& fifo() { return wiring_->fifo; }

  /// Replays `plan` once with `policy`'s phase costs: rewires if the
  /// platform changed, resets the engine (which takes the calling thread's
  /// obs context), runs it until it drains and returns the trace, valid
  /// until the next run() (a caller may move it out). Throws
  /// core::InternalError if some task never finished.
  sched::RunTrace& run(const ReplayPlan& plan, const ReplayPolicy& policy);

 private:
  struct Wiring {
    explicit Wiring(const platform::ClusterSpec& spec);
    Engine engine;
    ClusterSim cluster;
    FifoServer fifo;
  };

  /// Lifecycle of one task; phases only move forward.
  enum class Phase : std::uint8_t { Waiting, StartingUp, Up, Executing, Done };

  double now() const { return wiring_->engine.now(); }
  void maybe_spawn(dag::TaskId t);
  void on_up(dag::TaskId t);
  void maybe_execute(dag::TaskId t);
  void on_done(dag::TaskId t, double when);
  void maybe_request(std::size_t edge);
  void transfer(std::size_t edge, double when);
  void transfer_done(std::size_t edge, double when);

  std::optional<Wiring> wiring_;
  const ReplayPlan* plan_ = nullptr;
  const ReplayPolicy* policy_ = nullptr;
  sched::RunTrace trace_;
  std::vector<Phase> phase_;
  std::vector<int> order_preds_left_;  ///< processor-order gating
  std::vector<int> edges_left_;        ///< inbound redistributions not done
};

}  // namespace mtsched::simcore
