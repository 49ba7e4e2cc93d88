#include "mtsched/simcore/cluster_sim.hpp"

#include <algorithm>
#include <cstdint>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/topology.hpp"

namespace mtsched::simcore {

Ptask make_redistribution_ptask(const std::vector<int>& src_nodes,
                                const std::vector<int>& dst_nodes,
                                const redist::RedistPlan& plan,
                                std::string name) {
  MTSCHED_REQUIRE(static_cast<std::size_t>(plan.p_src) == src_nodes.size(),
                  "plan source ranks must match source node count");
  MTSCHED_REQUIRE(static_cast<std::size_t>(plan.p_dst) == dst_nodes.size(),
                  "plan destination ranks must match destination node count");
  Ptask t;
  t.name = std::move(name);
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

ClusterSim::ClusterSim(Engine& engine, const platform::ClusterSpec& spec)
    : engine_(engine), spec_(spec) {
  spec_.validate();
  const platform::Topology& topo = spec_.topology();
  const std::size_t racks = topo.racks.size();
  // Resource ids follow registration order: per rack its nodes' cpu/up/
  // down, the shared ToR fabric and — only when routes can leave the rack
  // — the uplink pair; the shared core last. A star thus registers
  // cpu/up/down per node followed by its switch fabric if shared.
  int node = 0;
  for (std::size_t r = 0; r < racks; ++r) {
    const platform::RackSpec& rk = topo.racks[r];
    for (int k = 0; k < rk.nodes; ++k, ++node) {
      const std::string tag = std::to_string(node);
      cpus_.push_back(engine_.add_resource(spec_.flops_of(node), "cpu" + tag));
      up_.push_back(engine_.add_resource(rk.link_bandwidth, "up" + tag));
      down_.push_back(engine_.add_resource(rk.link_bandwidth, "down" + tag));
      rack_of_.push_back(static_cast<int>(r));
    }
    const std::string rtag = std::to_string(r);
    tor_.push_back(rk.shared_tor
                       ? engine_.add_resource(rk.tor_bandwidth, "tor" + rtag)
                       : static_cast<ResourceId>(-1));
    if (racks > 1) {
      torup_.push_back(engine_.add_resource(rk.effective_uplink_bandwidth(),
                                            "torup" + rtag));
      tordown_.push_back(engine_.add_resource(rk.effective_uplink_bandwidth(),
                                              "tordown" + rtag));
    }
  }
  has_core_ = racks > 1 && topo.core.shared;
  if (has_core_) {
    core_ = engine_.add_resource(topo.core.bandwidth, "core");
  }
  // Precompute per-rack-pair route latencies (same expressions as
  // Topology::route_latency, hoisted out of build_uses).
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
  weight_.assign(engine_.num_resources(), 0.0);
}

ResourceId ClusterSim::cpu(int node) const {
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return cpus_[static_cast<std::size_t>(node)];
}

ResourceId ClusterSim::uplink(int node) const {
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return up_[static_cast<std::size_t>(node)];
}

ResourceId ClusterSim::downlink(int node) const {
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return down_[static_cast<std::size_t>(node)];
}

int ClusterSim::rack_of(int node) const {
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return rack_of_[static_cast<std::size_t>(node)];
}

ResourceId ClusterSim::tor(int rack) const {
  MTSCHED_REQUIRE(rack >= 0 && rack < static_cast<int>(tor_.size()),
                  "rack out of range");
  const ResourceId id = tor_[static_cast<std::size_t>(rack)];
  MTSCHED_REQUIRE(id != static_cast<ResourceId>(-1),
                  "rack has a non-blocking ToR (no fabric resource)");
  return id;
}

ResourceId ClusterSim::rack_uplink(int rack) const {
  MTSCHED_REQUIRE(rack >= 0 && rack < static_cast<int>(torup_.size()),
                  "no such rack uplink (one-rack platforms have none)");
  return torup_[static_cast<std::size_t>(rack)];
}

ResourceId ClusterSim::rack_downlink(int rack) const {
  MTSCHED_REQUIRE(rack >= 0 && rack < static_cast<int>(tordown_.size()),
                  "no such rack downlink (one-rack platforms have none)");
  return tordown_[static_cast<std::size_t>(rack)];
}

bool ClusterSim::has_core() const { return has_core_; }

ResourceId ClusterSim::core_switch() const {
  MTSCHED_REQUIRE(has_core_,
                  "platform has a non-blocking core (no fabric resource)");
  return core_;
}

void ClusterSim::charge(ResourceId r, double w) {
  // Weights charged are > 0, so a zero weight marks an untouched resource.
  if (weight_[r] == 0.0) touched_.push_back(r);
  weight_[r] += w;
}

PtaskUsage ClusterSim::usage(const Ptask& task) {
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
  const std::size_t racks = tor_.size();
  PtaskUsage out;
  for (const Flow& f : task.flows) {
    const double b = f.bytes;
    if (b <= 0.0) continue;
    const auto src = static_cast<std::size_t>(task.host_of_rank[f.src_rank]);
    const auto dst = static_cast<std::size_t>(task.host_of_rank[f.dst_rank]);
    if (src == dst) continue;  // local copy, no network usage
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
    // L07 charges the route latency once; with distinct routes we charge
    // the slowest route used — the one the last byte may traverse.
    out.latency = std::max(out.latency, rack_lat_[ra * racks + rb]);
  }
  std::sort(touched_.begin(), touched_.end());
  out.uses.reserve(touched_.size());
  for (ResourceId r : touched_) {
    out.uses.push_back(Use{r, weight_[r]});
    weight_[r] = 0.0;
  }
  touched_.clear();
  return out;
}

ActivityId ClusterSim::submit_ptask(const Ptask& task,
                                    CompletionFn on_complete) {
  auto [uses, latency] = usage(task);
  // Empty usage (zero flops, zero bytes) degenerates to an instant timer.
  const double amount = uses.empty() ? 0.0 : 1.0;
  return engine_.submit(std::move(uses), amount, latency,
                        std::move(on_complete), task.name);
}

double ClusterSim::solo_duration(const Ptask& task) {
  const auto [uses, latency] = usage(task);
  double bottleneck = 0.0;
  for (const auto& u : uses) {
    bottleneck = std::max(bottleneck, u.weight / engine_.capacity(u.resource));
  }
  return bottleneck + latency;
}

}  // namespace mtsched::simcore
