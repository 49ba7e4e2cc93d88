#include "mtsched/simcore/cluster_sim.hpp"

#include <algorithm>
#include <cstdint>

#include "mtsched/core/error.hpp"
#include "mtsched/core/units.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/redist/layout.hpp"

namespace mtsched::simcore {

Ptask make_redistribution_ptask(const std::vector<int>& src_nodes,
                                const std::vector<int>& dst_nodes,
                                const redist::RedistPlan& plan) {
  MTSCHED_REQUIRE(static_cast<std::size_t>(plan.p_src) == src_nodes.size(),
                  "plan source ranks must match source node count");
  MTSCHED_REQUIRE(static_cast<std::size_t>(plan.p_dst) == dst_nodes.size(),
                  "plan destination ranks must match destination node count");
  Ptask t;
  t.host_of_rank = src_nodes;
  t.host_of_rank.insert(t.host_of_rank.end(), dst_nodes.begin(),
                        dst_nodes.end());
  const auto dst_base = static_cast<std::uint32_t>(src_nodes.size());
  t.flows.reserve(plan.messages.size());
  for (const redist::Message& m : plan.messages) {
    t.flows.push_back(Flow{static_cast<std::uint32_t>(m.src),
                           dst_base + static_cast<std::uint32_t>(m.dst),
                           m.bytes});
  }
  return t;
}

ClusterLayout::ClusterLayout(const platform::ClusterSpec& spec)
    : spec_(spec) {
  spec_.validate();
  const platform::Topology& topo = spec_.topology();
  const std::size_t racks = topo.racks.size();
  // Resource ids follow this order: per rack its nodes' cpu/up/down, the
  // shared ToR fabric and — only when routes can leave the rack — the
  // uplink pair; the shared core last. A star thus lays out cpu/up/down
  // per node followed by its switch fabric if shared.
  int node = 0;
  for (std::size_t r = 0; r < racks; ++r) {
    const platform::RackSpec& rk = topo.racks[r];
    for (int k = 0; k < rk.nodes; ++k, ++node) {
      cpus_.push_back(add(spec_.flops_of(node)));
      up_.push_back(add(rk.link_bandwidth));
      down_.push_back(add(rk.link_bandwidth));
      rack_of_.push_back(static_cast<int>(r));
    }
    tor_.push_back(rk.shared_tor ? add(rk.tor_bandwidth)
                                 : static_cast<ResourceId>(-1));
    if (racks > 1) {
      torup_.push_back(add(rk.effective_uplink_bandwidth()));
      tordown_.push_back(add(rk.effective_uplink_bandwidth()));
    }
  }
  has_core_ = racks > 1 && topo.core.shared;
  if (has_core_) {
    core_ = add(topo.core.bandwidth);
  }
  // Precompute per-rack-pair route latencies: two links and the ToR
  // within a rack; link, ToR, core, ToR and link across racks.
  rack_lat_.assign(racks * racks, 0.0);
  for (std::size_t a = 0; a < racks; ++a) {
    for (std::size_t b = 0; b < racks; ++b) {
      rack_lat_[a * racks + b] =
          a == b ? 2.0 * topo.racks[a].link_latency + topo.racks[a].tor_latency
                 : topo.racks[a].link_latency + topo.racks[a].tor_latency +
                       topo.core.latency + topo.racks[b].tor_latency +
                       topo.racks[b].link_latency;
    }
  }
  weight_.assign(capacity_.size(), 0.0);
}

ResourceId ClusterLayout::add(double capacity) {
  MTSCHED_REQUIRE(capacity > 0.0, "resource capacity must be positive");
  capacity_.push_back(capacity);
  return capacity_.size() - 1;
}

void ClusterLayout::charge(ResourceId r, double w) {
  // Weights charged are > 0, so a zero weight marks an untouched resource.
  if (weight_[r] == 0.0) touched_.push_back(r);
  weight_[r] += w;
}

PtaskUsage ClusterLayout::usage(const Ptask& task) {
  const std::size_t p = task.host_of_rank.size();
  MTSCHED_REQUIRE(p > 0, "ptask needs at least one rank");
  for (int h : task.host_of_rank) {
    MTSCHED_REQUIRE(h >= 0 && h < spec_.num_nodes, "ptask host out of range");
  }
  MTSCHED_REQUIRE(task.flops.empty() || task.flops.size() == p,
                  "flops vector size must match rank count");
  for (double f : task.flops) MTSCHED_REQUIRE(f >= 0.0, "flops must be >= 0");
  for (const Flow& f : task.flows) {
    MTSCHED_REQUIRE(f.src_rank < p && f.dst_rank < p,
                    "flow rank out of range");
    MTSCHED_REQUIRE(f.bytes >= 0.0, "bytes must be >= 0");
  }

  // Accumulate weights per resource; the L07 activity has amount 1 and
  // weights equal to the absolute flop/byte totals per resource.
  for (std::size_t r = 0; r < task.flops.size(); ++r) {
    if (task.flops[r] > 0.0) {
      charge(cpus_[static_cast<std::size_t>(task.host_of_rank[r])],
             task.flops[r]);
    }
  }
  PtaskUsage out;
  for (const Flow& f : task.flows) {
    if (f.bytes <= 0.0) continue;
    out.latency = std::max(
        out.latency, charge_flow(task.host_of_rank[f.src_rank],
                                 task.host_of_rank[f.dst_rank], f.bytes));
  }
  out.uses.reserve(touched_.size());
  flush(out.uses);
  return out;
}

double ClusterLayout::charge_flow(int src_node, int dst_node, double b) {
  if (src_node == dst_node) return 0.0;  // local copy, no network usage
  const auto src = static_cast<std::size_t>(src_node);
  const auto dst = static_cast<std::size_t>(dst_node);
  charge(up_[src], b);
  charge(down_[dst], b);
  // Charge every link on the route: ToR fabric(s) when shared, and for
  // cross-rack transfers the uplink, core and downlink.
  const auto ra = static_cast<std::size_t>(rack_of_[src]);
  const auto rb = static_cast<std::size_t>(rack_of_[dst]);
  if (tor_[ra] != static_cast<ResourceId>(-1)) charge(tor_[ra], b);
  if (ra != rb) {
    charge(torup_[ra], b);
    if (has_core_) charge(core_, b);
    charge(tordown_[rb], b);
    if (tor_[rb] != static_cast<ResourceId>(-1)) charge(tor_[rb], b);
  }
  // L07 charges the route latency once; with distinct routes the caller
  // keeps the slowest route used — the one the last byte may traverse.
  return rack_lat_[ra * tor_.size() + rb];
}

void ClusterLayout::flush(std::vector<Use>& out) {
  std::sort(touched_.begin(), touched_.end());
  for (ResourceId r : touched_) {
    out.push_back(Use{r, weight_[r]});
    weight_[r] = 0.0;
  }
  touched_.clear();
}

double ClusterLayout::redistribution_usage(int n,
                                           std::span<const int> src_nodes,
                                           std::span<const int> dst_nodes,
                                           std::vector<Use>& pool) {
  for (const auto nodes : {src_nodes, dst_nodes}) {
    MTSCHED_REQUIRE(!nodes.empty(), "redistribution needs ranks on both sides");
    for (int h : nodes) {
      MTSCHED_REQUIRE(h >= 0 && h < spec_.num_nodes, "ptask host out of range");
    }
  }
  const int p_src = static_cast<int>(src_nodes.size());
  const int p_dst = static_cast<int>(dst_nodes.size());
  // The walk of redist::plan_block_redistribution, charging each message
  // as it is found, in the same order, so the weights sum identically.
  const redist::BlockLayout1D src(n, p_src);
  const redist::BlockLayout1D dst(n, p_dst);
  const double col_bytes = static_cast<double>(n) * core::kElemBytes;
  double latency = 0.0;
  int i = 0, j = 0;
  auto a = src.columns_of(0);
  auto b = dst.columns_of(0);
  while (i < p_src && j < p_dst) {
    const double bytes =
        static_cast<double>(redist::interval_overlap(a, b)) * col_bytes;
    if (bytes > 0.0) {
      latency = std::max(latency,
                         charge_flow(src_nodes[static_cast<std::size_t>(i)],
                                     dst_nodes[static_cast<std::size_t>(j)],
                                     bytes));
    }
    const int end = std::min(a.second, b.second);
    if (a.second == end && ++i < p_src) a = src.columns_of(i);
    if (b.second == end && ++j < p_dst) b = dst.columns_of(j);
  }
  flush(pool);
  return latency;
}

ClusterSim::ClusterSim(Engine& engine, const platform::ClusterSpec& spec)
    : engine_(engine), layout_(spec) {
  MTSCHED_REQUIRE(engine_.num_resources() == 0,
                  "a cluster's resources must be the engine's first");
  for (const double c : layout_.capacities()) engine_.add_resource(c);
}

ActivityId ClusterSim::submit_ptask(const Ptask& task,
                                    CompletionFn on_complete, Tag tag) {
  const auto [uses, latency] = layout_.usage(task);
  // Empty usage (zero flops, zero bytes) degenerates to an instant timer.
  const double amount = uses.empty() ? 0.0 : 1.0;
  return engine_.submit(uses, amount, latency, std::move(on_complete), tag);
}

}  // namespace mtsched::simcore
