#include "mtsched/exp/session.hpp"

#include <algorithm>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"

namespace mtsched::exp {

namespace {

/// FNV-1a over the canonical DAG text: the request's cache identity.
/// Canonicalizing through parse + to_text first makes two textual
/// spellings of the same DAG (whitespace, task order preserved by the
/// format) share a cell only when their canonical forms match.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
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

ScheduleCache::ScheduleCache(std::size_t num_shards)
    : shards_(std::max<std::size_t>(1, num_shards)) {}

ScheduleCache::Shard& ScheduleCache::shard_for(const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const ScheduleMemo> ScheduleCache::get_or_compute(
    const std::string& key, const Compute& compute, bool* hit) const {
  Shard& shard = shard_for(key);
  std::promise<std::shared_ptr<const ScheduleMemo>> fill;
  std::shared_future<std::shared_ptr<const ScheduleMemo>> cell;
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
      fill.set_value(std::make_shared<const ScheduleMemo>(compute()));
    } catch (...) {
      fill.set_exception(std::current_exception());
    }
  }
  return cell.get();  // rethrows a failed compute to every caller
}

std::size_t ScheduleCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock lock(shard.mutex);
    n += shard.cells.size();
  }
  return n;
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
  return serve(req, artifacts, nullptr);
}

std::vector<ScheduleResponse> Session::run_batch(
    const std::vector<ScheduleRequest>& reqs,
    std::vector<RunArtifacts>* artifacts) const {
  BatchScope scope(*this);
  if (artifacts != nullptr) artifacts->assign(reqs.size(), {});
  std::vector<ScheduleResponse> out;
  out.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    out.push_back(
        scope.run(reqs[i], artifacts != nullptr ? &(*artifacts)[i] : nullptr));
  }
  return out;
}

ScheduleResponse Session::BatchScope::run(const ScheduleRequest& req,
                                          RunArtifacts* artifacts) {
  const sched::SchedCost* shared = nullptr;
  try {
    const Lab& lab = session_.resolve_lab(req.platform);
    const models::CostModel& model = lab.model(req.model);
    TableEntry* entry = nullptr;
    for (auto& t : tables_) {
      if (t.lab == &lab && t.model == &model) {
        entry = &t;
        break;
      }
    }
    if (entry == nullptr) {
      TableEntry e;
      e.lab = &lab;
      e.model = &model;
      e.adapter = std::make_unique<models::SchedCostAdapter>(model);
      e.table = std::make_unique<sched::CostCurveTable>(*e.adapter,
                                                        lab.spec().num_nodes);
      tables_.push_back(std::move(e));
      entry = &tables_.back();
    }
    shared = entry->table.get();
  } catch (...) {
    // Resolution failed; serve() re-resolves and reports the error as
    // this request's response without touching the rest of the batch.
    shared = nullptr;
  }
  return session_.serve(req, artifacts, shared);
}

ScheduleResponse Session::serve(const ScheduleRequest& req,
                                RunArtifacts* artifacts,
                                const sched::SchedCost* shared_cost) const {
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
    const dag::Dag g = dag::from_text(req.dag_text);
    const int P = lab.spec().num_nodes;
    const auto strategy = req.mapping;

    const std::string key = hex64(fnv1a(dag::to_text(g))) + "/" + resp.model +
                            "/" + req.algorithm + "/" +
                            sched::mapping_name(strategy) + "/" +
                            resp.platform;
    bool hit = false;
    const auto memo = cache_.get_or_compute(
        key,
        [&]() {
          ScheduleMemo m;
          const models::SchedCostAdapter local_cost(model);
          const sched::SchedCost& cost =
              shared_cost != nullptr ? *shared_cost : local_cost;
          const auto sizes = allocator->allocate(g, cost, P);
          m.schedule =
              sched::ListMapper(strategy, lab.spec()).map(g, sizes, cost, P);
          m.makespan_sim = sim::Simulator(model).makespan(g, m.schedule);
          return m;
        },
        &hit);
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);

    resp.est_makespan = memo->schedule.est_makespan;
    resp.makespan_sim = memo->makespan_sim;
    resp.allocation = memo->schedule.allocation();
    if (artifacts != nullptr) artifacts->schedule = memo->schedule;
    if (req.execute) {
      if (artifacts != nullptr) {
        artifacts->exp_trace = lab.rig().run(g, memo->schedule, req.exp_seed);
        resp.makespan_exp = artifacts->exp_trace.makespan;
      } else {
        resp.makespan_exp = lab.rig().makespan(g, memo->schedule, req.exp_seed);
      }
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
