#include "mtsched/exp/session.hpp"

#include "mtsched/core/error.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/sched/allocation.hpp"

namespace mtsched::exp {

namespace {

/// FNV-1a over the parsed DAG: every task's id, kernel, matrix dimension
/// and name (its length first), then every edge, each field as its
/// little-endian bytes. The request's cache identity: texts that parse to
/// the same DAG (comments, blank lines, spacing) share a cell, and the
/// DAG is never serialised again to find it.
std::uint64_t dag_hash(const dag::Dag& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i, v >>= 8) {
      h ^= v & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(g.num_tasks(), 8);
  for (const dag::Task& t : g.tasks()) {
    mix(t.id, 4);
    mix(static_cast<std::uint64_t>(t.kernel), 1);
    mix(static_cast<std::uint32_t>(t.matrix_dim), 4);
    mix(t.name.size(), 8);
    for (const unsigned char c : t.name) mix(c, 1);
  }
  mix(g.edges().size(), 8);
  for (const dag::Edge& e : g.edges()) {
    mix(e.src, 4);
    mix(e.dst, 4);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

const char* status_name(ServiceStatus s) {
  switch (s) {
    case ServiceStatus::Ok: return "ok";
    case ServiceStatus::BadRequest: return "bad_request";
    case ServiceStatus::Overloaded: return "overloaded";
    case ServiceStatus::Internal: return "internal";
  }
  return "?";
}

std::shared_ptr<const CachedCell> ScheduleCache::get_or_compute(
    const std::string& key, const Compute& compute, bool* hit) const {
  Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
  std::promise<std::shared_ptr<const CachedCell>> fill;
  std::shared_future<std::shared_ptr<const CachedCell>> cell;
  bool compute_here = false;
  {
    std::unique_lock lock(shard.mutex);
    const auto it = shard.cells.find(key);
    if (it != shard.cells.end()) {
      cell = it->second;
    } else {
      cell = fill.get_future().share();
      shard.cells.emplace(key, cell);
      compute_here = true;
    }
  }
  if (hit != nullptr) *hit = !compute_here;
  if (compute_here) {
    // Outside the shard lock: concurrent misses on other keys proceed,
    // and waiters of this cell block on the future, not the mutex.
    try {
      fill.set_value(compute());
    } catch (...) {
      fill.set_exception(std::current_exception());
    }
  }
  return cell.get();  // rethrows a failed compute to every caller
}

Session::Session(const Lab& lab) : lab_(lab) {}

void Session::add_platform(const Lab& lab) {
  const std::string& name = lab.spec().name;
  MTSCHED_REQUIRE(!name.empty(), "platform lab needs a non-empty spec name");
  for (auto& [n, l] : labs_) {
    if (n == name) {
      l = &lab;
      return;
    }
  }
  labs_.emplace_back(name, &lab);
}

const Lab& Session::resolve_lab(const std::string& platform) const {
  if (platform.empty()) return lab_;
  if (platform == lab_.spec().name) return lab_;
  for (const auto& [n, l] : labs_) {
    if (n == platform) return *l;
  }
  throw core::InvalidArgument("unknown platform '" + platform + "'");
}

ScheduleResponse Session::run(const ScheduleRequest& req,
                              RunArtifacts* artifacts) const {
  ScheduleResponse resp;
  resp.algorithm = req.algorithm;
  resp.exp_seed = req.exp_seed;
  resp.model = req.model.name();
  try {
    const Lab& lab = resolve_lab(req.platform);
    resp.platform = lab.spec().name;
    const models::CostModel& model = lab.model(req.model);
    // Validates the algorithm name before any expensive work, exactly
    // like AlgoSpec::allocator does for campaigns.
    const auto allocator = sched::make_allocator(req.algorithm);
    dag::Dag g = dag::from_text(req.dag_text);

    const std::string key = hex64(dag_hash(g)) + "/" + resp.model +
                            "/" + req.algorithm + "/" +
                            sched::mapping_name(req.mapping) + "/" +
                            resp.platform;
    bool hit = false;
    const auto cached = cache_.get_or_compute(
        key,
        [&] {
          const models::SchedCostAdapter cost(model);
          sched::Schedule s = allocate_and_map(*allocator, req.mapping, g,
                                               cost, lab.spec());
          return std::make_shared<const CachedCell>(std::move(g), std::move(s),
                                                    model, lab.rig());
        },
        &hit);
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);

    const Cell& cell = cached->cell;
    resp.est_makespan = cell.schedule.est_makespan;
    resp.makespan_sim = cell.makespan_sim;
    resp.allocation = cell.schedule.allocation();
    if (artifacts != nullptr) artifacts->schedule = cell.schedule;
    if (req.execute) {
      // Moved out: a worker keeps no request's trace between requests.
      sched::RunTrace trace =
          std::move(lab.rig().run(simcore::thread_runner(), cell.plan, req.exp_seed));
      resp.makespan_exp = trace.makespan;
      if (artifacts != nullptr) artifacts->exp_trace = std::move(trace);
      resp.executed = true;
    }
  } catch (const core::InternalError& e) {
    resp.status = ServiceStatus::Internal;
    resp.message = e.what();
  } catch (const core::Error& e) {
    // Invalid DAG text, unknown algorithm, platform mismatch, ...: the
    // request is at fault.
    resp.status = ServiceStatus::BadRequest;
    resp.message = e.what();
  } catch (const std::exception& e) {
    resp.status = ServiceStatus::Internal;
    resp.message = e.what();
  }
  return resp;
}

}  // namespace mtsched::exp
