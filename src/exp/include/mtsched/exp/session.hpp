// The session layer: one lab, one sharded cache of experiment cells, one
// typed request/response API — the piece every mtsched front end shares.
//
// Historically each front end re-implemented the "schedule + simulate +
// execute" pipeline: the CLI `run` command inline, exp::Campaign inside
// its job loop, every bench by hand. Session extracts that pipeline
// behind typed ScheduleRequest/ScheduleResponse structs with explicit
// error codes, so
//   * `mtsched_cli run` is a thin client that renders a response,
//   * the `mtsched serve` daemon executes the same code path per rpc
//     request (responses are byte-identical to a local run by
//     construction), and
//   * exp::Campaign builds the same exp::Cell per (DAG, model, algorithm)
//     that the session caches per request key.
//
// The cache is sharded, one lock per shard. The first request of a cell
// (same DAG, model, algorithm, mapping and platform) schedules, compiles
// and simulates it behind a shared_future; later ones wait for it and only
// run their experiment seed on the calling thread's replay runner.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtsched/exp/lab.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sched/schedule.hpp"
#include "mtsched/sched/trace.hpp"

namespace mtsched::exp {

/// Outcome classification of a service-layer request. The numeric values
/// are the wire protocol's status codes (HTTP-flavoured on purpose:
/// familiar semantics, no new taxonomy to learn).
enum class ServiceStatus : int {
  Ok = 0,
  BadRequest = 400,  ///< malformed DAG / unknown algorithm or model
  Overloaded = 429,  ///< admission control rejected the request
  Internal = 500,    ///< invariant violation inside the pipeline
};

/// Short stable name for logs and wire messages ("ok", "bad_request", ...).
const char* status_name(ServiceStatus s);

/// One scheduling/simulation request — everything needed to reproduce
/// the paper's per-DAG experiment, in one typed struct.
struct ScheduleRequest {
  std::string dag_text;            ///< DAG in the dag::to_text line format
  std::string algorithm = "HCPA";  ///< sched::make_allocator name
  /// Mapping-phase processor-selection policy.
  sched::MappingStrategy mapping = sched::MappingStrategy::EarliestStart;
  /// Platform to schedule against, by registered name; empty selects the
  /// session's default lab. Unknown names are a BadRequest.
  std::string platform;
  models::ModelSpec model;         ///< resolved against the lab by kind
  std::uint64_t exp_seed = 42;     ///< cluster weather of the execution
  bool execute = true;  ///< also run the emulated cluster (the experiment)
};

/// The response. On status != Ok only `message` (and the echoed
/// identity fields, when they parsed) is meaningful.
struct ScheduleResponse {
  ServiceStatus status = ServiceStatus::Ok;
  std::string message;    ///< human-readable error detail; empty on Ok
  std::string model;      ///< resolved cost-model name
  std::string algorithm;  ///< echoed allocator name
  std::string platform;   ///< resolved platform (lab spec) name
  std::uint64_t exp_seed = 0;
  double est_makespan = 0.0;   ///< the scheduler's own prediction
  double makespan_sim = 0.0;   ///< simulated under the cost model
  double makespan_exp = 0.0;   ///< measured on the emulated cluster
  bool executed = false;       ///< whether makespan_exp is meaningful
  std::vector<int> allocation; ///< per-task processor counts

  bool ok() const { return status == ServiceStatus::Ok; }
};

/// A cache entry: the DAG a request parsed on its miss and the cell built
/// on it, which every experiment seed of the key reuses.
struct CachedCell {
  CachedCell(dag::Dag g, sched::Schedule s, const models::CostModel& model,
             const tgrid::TGridEmulator& rig)
      : dag(std::move(g)), cell(dag, std::move(s), model, rig) {}

  const dag::Dag dag;
  const Cell cell;
};

/// Sharded memoization table of CachedCells, keyed by caller-composed
/// strings (the session uses
/// "<dag-hash>/<model>/<algorithm>/<mapping>/<platform>"). The first
/// caller of a key computes the cell behind a shared_future with the shard
/// lock *released*, so misses on other keys proceed in parallel. A compute
/// that throws propagates to every waiter of that cell and is not retried
/// (the same inputs would fail the same way).
class ScheduleCache {
 public:
  using Compute = std::function<std::shared_ptr<const CachedCell>()>;

  /// The cell for `key`, computing it via `compute` exactly once per key
  /// across all threads. `hit` (optional) reports whether this call
  /// reused an existing cell — deterministic per key: one miss, then
  /// hits.
  std::shared_ptr<const CachedCell> get_or_compute(
      const std::string& key, const Compute& compute,
      bool* hit = nullptr) const;

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::string,
                       std::shared_future<std::shared_ptr<const CachedCell>>>
        cells;
  };

  static constexpr std::size_t kShards = 16;  ///< past 64 workers' needs

  mutable std::array<Shard, kShards> shards_;
};

/// Side products of one request beyond the response numbers, for front
/// ends that render more than the makespans (Gantt charts, traces).
struct RunArtifacts {
  sched::Schedule schedule;
  sched::RunTrace exp_trace;  ///< filled only when the request executes
};

/// One default lab, optional further platform labs, one schedule cache.
/// Thread-safe: requests may be served concurrently from pool workers
/// (exp::Service does exactly that). Register every platform before
/// serving — add_platform is not synchronized with run().
class Session {
 public:
  /// `lab` must outlive the session.
  explicit Session(const Lab& lab);

  /// Registers an additional platform lab, addressable from requests by
  /// its spec name (req.platform). `lab` must outlive the session.
  /// Re-registering a name replaces the earlier entry.
  void add_platform(const Lab& lab);

  /// The lab a request with this platform name resolves to: the default
  /// lab for "", a registered lab otherwise. Throws
  /// core::InvalidArgument for unknown names.
  const Lab& resolve_lab(const std::string& platform) const;

  /// Serves one request. Never throws for request-level problems — they
  /// come back as status codes with a message; only genuine library bugs
  /// (core::InternalError) escalate to Internal, still in-band.
  /// Emits spans onto the calling thread's ambient obs context like the
  /// rest of the pipeline. `artifacts` (optional) receives the schedule
  /// and, when the request executes, the full experiment trace.
  ScheduleResponse run(const ScheduleRequest& req,
                       RunArtifacts* artifacts = nullptr) const;

  /// Cumulative cell-cache statistics across all requests.
  std::uint64_t cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  const Lab& lab_;
  /// Registered (name, lab) platforms; linear scan — registries hold a
  /// handful of entries and are read-only while serving.
  std::vector<std::pair<std::string, const Lab*>> labs_;
  ScheduleCache cache_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace mtsched::exp
