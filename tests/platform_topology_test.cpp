// Tests for hierarchical network platforms: the Topology description and
// its route/uplink arithmetic, the mtsched.platform.v1 text format
// (round-trip property sweep, parse errors, rejection of headerless
// files), the named platform registry, the flat view placement-blind
// estimators read, and the cluster simulation wiring of stars and racks.
#include "mtsched/platform/topology.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/platform/parser.hpp"
#include "mtsched/redist/plan.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

#include "platform_util.hpp"

namespace {

using namespace mtsched::platform;
using mtsched::core::InvalidArgument;
using mtsched::core::ParseError;
using mtsched::test_util::to_text;
using mtsched::test_util::route_latency;
using mtsched::test_util::solo_duration;

/// Two tiny racks with hand-checkable numbers: 2 nodes each, 10 B/s node
/// links with 0.5 s latency, 40 B/s ToR and core fabrics.
Topology two_racks(double oversubscription) {
  Topology t;
  t.name = "tiny2x2";
  RackSpec r;
  r.nodes = 2;
  r.node_flops = 100.0;
  r.link_bandwidth = 10.0;
  r.link_latency = 0.5;
  r.tor_bandwidth = 40.0;
  r.tor_latency = 0.0;
  r.oversubscription = oversubscription;
  t.racks = {r, r};
  t.core.bandwidth = 40.0;
  t.core.latency = 0.0;
  return t;
}

TEST(Topology, NodeIndexingAndRackLookup) {
  const auto topo = hierarchical_topology(4, 8, 4.0);
  EXPECT_EQ(topo.num_nodes(), 32);
  EXPECT_EQ(topo.num_racks(), 4);
  EXPECT_FALSE(topo.reduces_to_star());
  EXPECT_EQ(topo.rack_of(0), 0);
  EXPECT_EQ(topo.rack_of(7), 0);
  EXPECT_EQ(topo.rack_of(8), 1);
  EXPECT_EQ(topo.rack_of(31), 3);
  EXPECT_THROW(topo.rack_of(32), InvalidArgument);
  EXPECT_THROW(topo.rack_of(-1), InvalidArgument);
  EXPECT_EQ(topo.first_node_of(0), 0);
  EXPECT_EQ(topo.first_node_of(3), 24);
  EXPECT_THROW(topo.first_node_of(4), InvalidArgument);
  EXPECT_DOUBLE_EQ(topo.flops_of(17), bayreuth32().reference_flops());
}

TEST(Topology, RouteLatencyFormulas) {
  Topology t = two_racks(1.0);
  t.racks[0].link_latency = 1e-4;
  t.racks[0].tor_latency = 2e-5;
  t.racks[1].link_latency = 3e-4;
  t.racks[1].tor_latency = 4e-5;
  t.core.latency = 5e-5;
  // Same node: no network.
  EXPECT_DOUBLE_EQ(route_latency(t, 1, 1), 0.0);
  // Intra-rack: the star expression over the rack's own link and ToR.
  EXPECT_DOUBLE_EQ(route_latency(t, 0, 1), 2.0 * 1e-4 + 2e-5);
  EXPECT_DOUBLE_EQ(route_latency(t, 2, 3), 2.0 * 3e-4 + 4e-5);
  // Cross-rack: src link + src ToR + core + dst ToR + dst link.
  const double cross = 1e-4 + 2e-5 + 5e-5 + 4e-5 + 3e-4;
  EXPECT_DOUBLE_EQ(route_latency(t, 0, 2), cross);
  EXPECT_DOUBLE_EQ(route_latency(t, 3, 1), cross);
  // The worst pair is what placement-blind estimators charge — here rack
  // 1's own intra-rack route, which beats the cross-rack path.
  EXPECT_DOUBLE_EQ(t.max_route_latency(), 2.0 * 3e-4 + 4e-5);
  t.racks[1].link_latency = 1e-4;  // now the cross-rack route dominates
  EXPECT_DOUBLE_EQ(t.max_route_latency(),
                   1e-4 + 2e-5 + 5e-5 + 4e-5 + 1e-4);
}

TEST(Topology, OversubscriptionDerivesUplink) {
  RackSpec r;
  r.nodes = 8;
  r.link_bandwidth = 125e6;
  r.oversubscription = 4.0;
  // nodes * link / ratio.
  EXPECT_DOUBLE_EQ(r.effective_uplink_bandwidth(), 8 * 125e6 / 4.0);
  // An explicit capacity overrides the derived value.
  r.uplink_bandwidth = 1e9;
  EXPECT_DOUBLE_EQ(r.effective_uplink_bandwidth(), 1e9);

  auto t = two_racks(4.0);  // derived uplinks: 2 * 10 / 4 = 5 B/s
  EXPECT_DOUBLE_EQ(t.min_uplink_bandwidth(), 5.0);
  t.racks[1].uplink_bandwidth = 2.0;  // explicitly slower
  EXPECT_DOUBLE_EQ(t.min_uplink_bandwidth(), 2.0);
}

TEST(Topology, ValidateCatchesNonPhysicalValues) {
  EXPECT_THROW(Topology{}.validate(), InvalidArgument);  // no racks

  auto bad = two_racks(1.0);
  bad.racks[0].nodes = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.racks[1].link_bandwidth = -1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.racks[0].oversubscription = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.racks[0].node_speeds = {1.0};  // 1 entry for 2 nodes
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.core.bandwidth = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  EXPECT_NO_THROW(two_racks(1.0).validate());
}

TEST(Topology, ValidateRejectsNodeTotalsPastIntMax) {
  auto big = two_racks(1.0);
  big.racks[0].nodes = INT_MAX;
  big.racks[1].nodes = 1;
  EXPECT_THROW(big.validate(), InvalidArgument);
  EXPECT_THROW((void)big.num_nodes(), InvalidArgument);
  big.racks[0].nodes = INT_MAX - 1;
  EXPECT_NO_THROW(big.validate());
  EXPECT_EQ(big.num_nodes(), INT_MAX);
}

TEST(TopologyFormat, RoundTripsPresets) {
  for (const Topology& topo :
       {bayreuth32().topology(), cray_xt4().topology(),
        hierarchical_topology(2, 16, 1.0), hierarchical_topology(4, 8, 4.0),
        two_racks(4.0)}) {
    const auto text = to_text(topo);
    EXPECT_EQ(parse_topology(text), topo) << text;
  }
}

TEST(TopologyFormat, RoundTripPropertySweep) {
  // Random topologies — mixed rack shapes, explicit uplinks, per-node
  // speeds — must survive to_text -> parse_topology exactly (the writer
  // prints 17 significant digits, so doubles round-trip bit-for-bit).
  mtsched::core::Rng rng(20260808);
  for (int iter = 0; iter < 25; ++iter) {
    Topology t;
    t.name = "sweep" + std::to_string(iter);
    const int racks = static_cast<int>(rng.uniform_int(1, 5));
    for (int r = 0; r < racks; ++r) {
      RackSpec rack;
      rack.nodes = static_cast<int>(rng.uniform_int(1, 9));
      rack.node_flops = rng.uniform(1e6, 1e9);
      rack.link_bandwidth = rng.uniform(1e6, 1e9);
      rack.link_latency = rng.uniform(0.0, 1e-3);
      rack.tor_bandwidth = rng.uniform(1e8, 1e10);
      rack.tor_latency = rng.uniform(0.0, 1e-4);
      rack.shared_tor = rng.uniform() < 0.5;
      rack.oversubscription = rng.uniform(1.0, 64.0);
      if (rng.uniform() < 0.3) {
        rack.uplink_bandwidth = rng.uniform(1e6, 1e9);
      }
      if (rng.uniform() < 0.3) {
        for (int n = 0; n < rack.nodes; ++n) {
          rack.node_speeds.push_back(rng.uniform(1e6, 1e9));
        }
      }
      t.racks.push_back(std::move(rack));
    }
    t.core.bandwidth = rng.uniform(1e8, 1e10);
    t.core.latency = rng.uniform(0.0, 1e-4);
    t.core.shared = rng.uniform() < 0.5;
    const auto text = to_text(t);
    EXPECT_EQ(parse_topology(text), t) << text;
  }
}

TEST(TopologyFormat, CollapsesIdenticalRacksIntoCount) {
  const auto text = to_text(hierarchical_topology(4, 8, 4.0));
  EXPECT_NE(text.find("count = 4"), std::string::npos) << text;
  // One [rack] section, not four.
  EXPECT_EQ(text.find("[rack]"), text.rfind("[rack]")) << text;
}

TEST(TopologyFormat, ParseErrors) {
  // The v1 header is mandatory for parse_topology.
  EXPECT_THROW((void)parse_topology("name = x\n"), ParseError);
  const std::string head = "mtsched.platform.v1\n";
  EXPECT_THROW((void)parse_topology(head + "[rack\nnodes = 2\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "[flux]\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "nodes = 2\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\nwarp = 9\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\nnodes = huge\n"),
               ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\nnodes = 2.5\n"),
               ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\ncount = 0\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "[core]\nshared = maybe\n"),
               ParseError);
  // Syntactically fine but non-physical: validation still runs.
  EXPECT_THROW((void)parse_topology(head + "[rack]\nnodes = 0\n"),
               InvalidArgument);
  // No racks at all.
  EXPECT_THROW((void)parse_topology(head + "name = empty\n"), InvalidArgument);
}

TEST(PlatformFormat, RejectsLegacyFlatFormat) {
  const auto v1 = parse_platform(to_text(hierarchical_topology(4, 8, 4.0)));
  EXPECT_EQ(v1.topology().num_racks(), 4);
  EXPECT_EQ(v1.num_nodes, 32);

  // A headerless flat key = value file is rejected, naming the header.
  try {
    (void)parse_platform("name = flatfile\nnodes = 8\n");
    FAIL() << "headerless platform file was accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(kPlatformSchema), std::string::npos)
        << e.what();
  }
}

TEST(PlatformNames, RegistryIsCompleteAndRejectsUnknown) {
  for (const auto& name : named_platform_names()) {
    const auto spec = named_platform(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name(), name);
    EXPECT_NO_THROW(spec->validate()) << name;
  }
  EXPECT_FALSE(named_platform("nosuch").has_value());
  EXPECT_FALSE(named_platform("").has_value());

  // Stars are one-rack topologies; hier1x32 is bayreuth32 under another
  // name.
  EXPECT_EQ(named_platform("bayreuth32")->topology().num_racks(), 1);
  EXPECT_EQ(named_platform("cray_xt4")->topology().num_racks(), 1);
  auto hier1 = named_platform("hier1x32")->topology();
  hier1.name = "bayreuth32";
  EXPECT_EQ(hier1, bayreuth32().topology());
  EXPECT_EQ(named_platform("hier2x16")->topology().num_racks(), 2);
  EXPECT_EQ(named_platform("hier4x8")->topology().num_racks(), 4);
}

TEST(TopologyCluster, OneRackFlattensToExactStarFields) {
  // A star's flat view is its one rack: the node link and the switch
  // fabric, with no uplink on any route.
  const auto star = bayreuth32();
  const RackSpec& rack = star.topology().racks.front();
  EXPECT_EQ(star.num_nodes, rack.nodes);
  EXPECT_EQ(star.reference_flops(), rack.node_flops);
  const FlatNetwork net = star.topology().flat_network();
  EXPECT_EQ(net.link_bandwidth, rack.link_bandwidth);
  EXPECT_EQ(net.fabric_bandwidth, rack.tor_bandwidth);
  EXPECT_EQ(net.shared_fabric, rack.shared_tor);
  EXPECT_EQ(net.uplink_bandwidth, 0.0);
  // Route latencies are the star formula, bit for bit.
  const double star_route = 2.0 * rack.link_latency + rack.tor_latency;
  EXPECT_EQ(route_latency(star.topology(), 0, 1), star_route);
  EXPECT_EQ(star.topology().max_route_latency(), star_route);
  // Transfers are bound by the slower of link and fabric.
  EXPECT_EQ(net.transfer_time(125e6, 0.0, 1e30), 1.0);
  EXPECT_EQ(net.transfer_time(0.0, 4e9, 1e30), 2.0);
}

TEST(TopologyCluster, MultiRackFlatViewUsesCoreAsBackbone) {
  auto topo = two_racks(4.0);
  topo.racks[1].node_flops = 50.0;  // heterogeneous across racks
  const auto spec = to_cluster(topo);
  EXPECT_EQ(spec.num_nodes, 4);
  const FlatNetwork net = spec.topology().flat_network();
  EXPECT_DOUBLE_EQ(net.fabric_bandwidth, topo.core.bandwidth);
  EXPECT_EQ(net.shared_fabric, topo.core.shared);
  EXPECT_DOUBLE_EQ(net.uplink_bandwidth, topo.min_uplink_bandwidth());
  // 30 B through a 5 B/s uplink outlasts the 10 B/s link and 40 B/s core.
  EXPECT_DOUBLE_EQ(net.transfer_time(30.0, 30.0, 30.0), 6.0);
  // Per-node speeds follow the racks; rack 0 is the reference.
  EXPECT_TRUE(spec.heterogeneous());
  EXPECT_DOUBLE_EQ(spec.reference_flops(), 100.0);
  EXPECT_DOUBLE_EQ(spec.flops_of(1), 100.0);
  EXPECT_DOUBLE_EQ(spec.flops_of(2), 50.0);
}

TEST(TopologySim, OneRackSimulationIsBitIdenticalToStar) {
  // A star wires exactly SimGrid's star cluster: cpu/up/down per node in
  // node order, then the shared switch fabric — no uplink, no core. The
  // ptask mix finishes at the star model's exact doubles.
  RackSpec rack;
  rack.nodes = 4;
  rack.node_flops = 100.0;
  rack.link_bandwidth = 10.0;
  rack.link_latency = 0.5;
  rack.tor_bandwidth = 15.0;
  const auto star = to_cluster(one_rack("tiny", rack));

  mtsched::simcore::Engine e;
  mtsched::simcore::ClusterSim cs(e, star);
  EXPECT_EQ(e.num_resources(), 13u);  // 4 x (cpu, up, down) + fabric
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_EQ(e.capacity(3 * n), 100.0);     // cpu
    EXPECT_EQ(e.capacity(3 * n + 1), 10.0);  // uplink
    EXPECT_EQ(e.capacity(3 * n + 2), 10.0);  // downlink
  }
  EXPECT_EQ(e.capacity(12), 15.0);  // the switch fabric

  mtsched::simcore::Ptask compute;
  compute.host_of_rank = {0, 1};
  compute.flops = {200.0, 100.0};
  mtsched::simcore::Ptask transfer;
  transfer.host_of_rank = {1, 2};
  transfer.flows = {{0, 1, 30.0}};
  std::vector<double> done;
  cs.submit_ptask(compute, [&](double when) { done.push_back(when); });
  cs.submit_ptask(transfer, [&](double when) { done.push_back(when); });
  e.run();
  // Exact equality, not tolerance: 200 flops at 100 flop/s; 30 B over the
  // 10 B/s links (the 15 B/s fabric does not bind) plus 2 x 0.5 s latency.
  EXPECT_EQ(done, (std::vector<double>{2.0, 4.0}));
}

TEST(TopologySim, CrossRackTransfersPayTheOversubscribedUplink) {
  // two_racks(4.0): node links 10 B/s, derived uplinks 2*10/4 = 5 B/s.
  // Intra-rack latency 2*0.5 = 1 s; cross-rack 0.5 + 0 + 0 + 0 + 0.5 = 1 s.
  const auto spec = to_cluster(two_racks(4.0));
  mtsched::simcore::Engine e;
  mtsched::simcore::ClusterSim cs(e, spec);
  mtsched::simcore::ClusterLayout layout(spec);

  mtsched::simcore::Ptask intra;
  intra.host_of_rank = {0, 1};
  intra.flows = {{0, 1, 30.0}};
  mtsched::simcore::Ptask cross = intra;
  cross.host_of_rank = {0, 2};

  // Intra-rack: the 10 B/s node links bound -> 30/10 + 1 = 4 s.
  EXPECT_DOUBLE_EQ(solo_duration(layout, intra), 4.0);
  // Cross-rack: the 5 B/s uplink bounds -> 30/5 + 1 = 7 s.
  EXPECT_DOUBLE_EQ(solo_duration(layout, cross), 7.0);

  // At 1:1 the uplink (20 B/s) no longer binds and cross == intra.
  mtsched::simcore::ClusterLayout layout1(to_cluster(two_racks(1.0)));
  EXPECT_DOUBLE_EQ(solo_duration(layout1, cross),
                   solo_duration(layout1, intra));

  // The engine runs agree with the solo estimates.
  double when_cross = -1.0;
  cs.submit_ptask(cross, [&](double when) { when_cross = when; });
  e.run();
  EXPECT_DOUBLE_EQ(when_cross, 7.0);
}

/// A block redistribution of a 12-column matrix from 3 to 4 ranks
/// (columns 4|4|4 -> 3|3|3|3, 96 B per column) between two placements on
/// hier4x8, whose racks register 27 resources each: per node cpu/up/down
/// (ids 27r + 3k ...), then tor, torup and tordown; the shared core is 108.
mtsched::simcore::Ptask hier_redistribution(const std::vector<int>& dst) {
  return mtsched::simcore::make_redistribution_ptask(
      {0, 1, 2}, dst, mtsched::redist::plan_block_redistribution(12, 3, 4));
}

using UseList = std::vector<std::pair<std::size_t, double>>;

UseList use_list(const mtsched::simcore::PtaskUsage& u) {
  UseList out;
  for (const auto& use : u.uses) out.emplace_back(use.resource, use.weight);
  return out;
}

TEST(TopologySim, IntraRackRedistributionUsesOnHier4x8) {
  const auto spec = to_cluster(hierarchical_topology(4, 8, 4.0));
  const RackSpec& rack = spec.topology().racks[0];
  mtsched::simcore::ClusterLayout layout(spec);
  const auto pt = hier_redistribution({3, 4, 5, 6});
  const auto u = layout.usage(pt);
  // Each source sends 384 B, each destination receives 288 B, and the
  // whole 1152 B crosses rack 0's ToR fabric.
  EXPECT_EQ(use_list(u), (UseList{{1, 384.0},
                                  {4, 384.0},
                                  {7, 384.0},
                                  {11, 288.0},
                                  {14, 288.0},
                                  {17, 288.0},
                                  {20, 288.0},
                                  {24, 1152.0}}));
  EXPECT_EQ(u.latency, 2.0 * rack.link_latency + rack.tor_latency);
  // The source node links bind.
  EXPECT_EQ(solo_duration(layout, pt),
            384.0 / rack.link_bandwidth + 2.0 * rack.link_latency +
                rack.tor_latency);
}

TEST(TopologySim, CrossRackRedistributionUsesOnHier4x8) {
  const auto spec = to_cluster(hierarchical_topology(4, 8, 4.0));
  const RackSpec& rack = spec.topology().racks[0];
  const CoreSpec& core = spec.topology().core;
  mtsched::simcore::ClusterLayout layout(spec);
  const auto pt = hier_redistribution({8, 9, 10, 11});
  const auto u = layout.usage(pt);
  // Rack 0's node uplinks, ToR and core uplink; the core; rack 1's core
  // downlink, ToR and node downlinks.
  EXPECT_EQ(use_list(u), (UseList{{1, 384.0},
                                  {4, 384.0},
                                  {7, 384.0},
                                  {24, 1152.0},
                                  {25, 1152.0},
                                  {29, 288.0},
                                  {32, 288.0},
                                  {35, 288.0},
                                  {38, 288.0},
                                  {51, 1152.0},
                                  {53, 1152.0},
                                  {108, 1152.0}}));
  const double latency = rack.link_latency + rack.tor_latency + core.latency +
                         rack.tor_latency + rack.link_latency;
  EXPECT_EQ(u.latency, latency);
  // The 4:1 oversubscribed rack uplink (8 links / 4) binds.
  EXPECT_EQ(solo_duration(layout, pt),
            1152.0 / rack.effective_uplink_bandwidth() + latency);
}

TEST(TopologySim, HierarchicalWiringExposesRackResources) {
  // Per rack: its nodes' cpu/up/down, then tor, torup and tordown; the
  // shared core last. Rack 0 is ids 0..8, rack 1 is 9..17, the core 18.
  const auto spec = to_cluster(two_racks(4.0));
  mtsched::simcore::Engine e;
  mtsched::simcore::ClusterSim cs(e, spec);
  for (std::size_t rack = 0; rack < 2; ++rack) {
    EXPECT_DOUBLE_EQ(e.capacity(9 * rack + 6), 40.0);  // tor
    EXPECT_DOUBLE_EQ(e.capacity(9 * rack + 7), 5.0);   // torup
    EXPECT_DOUBLE_EQ(e.capacity(9 * rack + 8), 5.0);   // tordown
  }
  EXPECT_DOUBLE_EQ(e.capacity(18), 40.0);
  // 4 x (cpu, up, down) + 2 x (tor, torup, tordown) + core.
  EXPECT_EQ(e.num_resources(), 19u);
}

}  // namespace
