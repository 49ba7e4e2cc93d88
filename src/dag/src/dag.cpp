#include "mtsched/dag/dag.hpp"

#include <algorithm>
#include <queue>

#include "mtsched/core/error.hpp"

namespace mtsched::dag {

const char* kernel_name(TaskKernel k) {
  switch (k) {
    case TaskKernel::MatMul: return "matmul";
    case TaskKernel::MatAdd: return "matadd";
  }
  return "?";
}

double kernel_flops(TaskKernel k, int n) {
  MTSCHED_REQUIRE(n > 0, "matrix dimension must be positive");
  const double nd = static_cast<double>(n);
  switch (k) {
    case TaskKernel::MatMul:
      return 2.0 * nd * nd * nd;
    case TaskKernel::MatAdd:
      // Additions are repeated n/4 times (paper Section IV-1) so they are
      // not negligible next to multiplications: total (n/4) * n^2 ops.
      return (nd / 4.0) * nd * nd;
  }
  return 0.0;
}

Dag::Dag(const Dag& other)
    : tasks_(other.tasks_),
      edges_(other.edges_),
      preds_(other.preds_),
      succs_(other.succs_) {
  const std::scoped_lock lock(other.topo_mu_);
  topo_cache_ = other.topo_cache_;  // immutable, safe to share
}

Dag::Dag(Dag&& other) noexcept
    : tasks_(std::move(other.tasks_)),
      edges_(std::move(other.edges_)),
      preds_(std::move(other.preds_)),
      succs_(std::move(other.succs_)),
      topo_cache_(std::move(other.topo_cache_)) {}

Dag& Dag::operator=(const Dag& other) {
  if (this != &other) {
    Dag copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Dag& Dag::operator=(Dag&& other) noexcept {
  tasks_ = std::move(other.tasks_);
  edges_ = std::move(other.edges_);
  preds_ = std::move(other.preds_);
  succs_ = std::move(other.succs_);
  topo_cache_ = std::move(other.topo_cache_);
  return *this;
}

TaskId Dag::add_task(TaskKernel kernel, int matrix_dim, std::string name) {
  MTSCHED_REQUIRE(matrix_dim > 0, "matrix dimension must be positive");
  topo_cache_.reset();  // mutation invalidates the derived topology
  Task t;
  t.id = static_cast<TaskId>(tasks_.size());
  t.kernel = kernel;
  t.matrix_dim = matrix_dim;
  t.name = name.empty() ? std::string(kernel_name(kernel)) + "_" +
                              std::to_string(t.id)
                        : std::move(name);
  tasks_.push_back(std::move(t));
  preds_.emplace_back();
  succs_.emplace_back();
  return tasks_.back().id;
}

void Dag::add_edge(TaskId src, TaskId dst) {
  MTSCHED_REQUIRE(src < tasks_.size(), "unknown source task");
  MTSCHED_REQUIRE(dst < tasks_.size(), "unknown destination task");
  MTSCHED_REQUIRE(src != dst, "self-loop edges are not allowed");
  const auto& out = succs_[src];
  MTSCHED_REQUIRE(std::find(out.begin(), out.end(), dst) == out.end(),
                  "duplicate edge");
  topo_cache_.reset();  // mutation invalidates the derived topology
  edges_.push_back(Edge{src, dst});
  succs_[src].push_back(dst);
  preds_[dst].push_back(src);
}

const Task& Dag::task(TaskId id) const {
  MTSCHED_REQUIRE(id < tasks_.size(), "unknown task id");
  return tasks_[id];
}

const std::vector<TaskId>& Dag::predecessors(TaskId id) const {
  MTSCHED_REQUIRE(id < tasks_.size(), "unknown task id");
  return preds_[id];
}

std::vector<TaskId> Dag::entry_tasks() const {
  std::vector<TaskId> out;
  for (const auto& t : tasks_)
    if (preds_[t.id].empty()) out.push_back(t.id);
  return out;
}

std::vector<TaskId> Dag::exit_tasks() const {
  std::vector<TaskId> out;
  for (const auto& t : tasks_)
    if (succs_[t.id].empty()) out.push_back(t.id);
  return out;
}

const Dag::TopoCache& Dag::topo() const {
  const std::scoped_lock lock(topo_mu_);
  if (topo_cache_) return *topo_cache_;

  auto cache = std::make_shared<TopoCache>();
  std::vector<std::size_t> indeg(tasks_.size(), 0);
  for (const auto& e : edges_) ++indeg[e.dst];
  // Deterministic order: among ready tasks, smallest id first.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (const auto& t : tasks_)
    if (indeg[t.id] == 0) ready.push(t.id);
  cache->order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId id = ready.top();
    ready.pop();
    cache->order.push_back(id);
    for (TaskId s : succs_[id]) {
      if (--indeg[s] == 0) ready.push(s);
    }
  }
  MTSCHED_REQUIRE(cache->order.size() == tasks_.size(), "DAG contains a cycle");

  cache->positions.assign(tasks_.size(), 0);
  for (std::size_t i = 0; i < cache->order.size(); ++i) {
    cache->positions[cache->order[i]] = i;
  }
  cache->pred_off.assign(tasks_.size() + 1, 0);
  cache->succ_off.assign(tasks_.size() + 1, 0);
  for (const auto& t : tasks_) {
    cache->pred_off[t.id + 1] = cache->pred_off[t.id] + preds_[t.id].size();
    cache->succ_off[t.id + 1] = cache->succ_off[t.id] + succs_[t.id].size();
  }
  cache->pred_flat.reserve(edges_.size());
  cache->succ_flat.reserve(edges_.size());
  for (const auto& t : tasks_) {
    for (const TaskId p : preds_[t.id]) cache->pred_flat.push_back(p);
    for (const TaskId s : succs_[t.id]) cache->succ_flat.push_back(s);
  }

  cache->levels.assign(tasks_.size(), 0);
  for (const TaskId id : cache->order) {
    for (const TaskId p : preds_[id]) {
      cache->levels[id] = std::max(cache->levels[id], cache->levels[p] + 1);
    }
  }
  cache->num_levels =
      tasks_.empty()
          ? 0
          : *std::max_element(cache->levels.begin(), cache->levels.end()) + 1;

  topo_cache_ = std::move(cache);
  return *topo_cache_;
}

const std::vector<TaskId>& Dag::topological_order() const {
  return topo().order;
}

Dag::TopologyView Dag::topology() const {
  const TopoCache& c = topo();
  return TopologyView{c.order,    c.positions, c.pred_off,
                      c.pred_flat, c.succ_off,  c.succ_flat};
}

const std::vector<int>& Dag::precedence_levels() const {
  return topo().levels;
}

int Dag::num_levels() const { return topo().num_levels; }

void Dag::validate() const { (void)topological_order(); }

}  // namespace mtsched::dag
