// Tests for cluster resource wiring and the L07-style parallel-task model.
#include <gtest/gtest.h>

#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/redist/plan.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

#include "platform_util.hpp"

namespace {

using namespace mtsched::simcore;
using mtsched::core::InvalidArgument;
using mtsched::test_util::solo_duration;

mtsched::platform::ClusterSpec tiny(bool shared_switch = true) {
  mtsched::platform::RackSpec rack;
  rack.nodes = 4;
  rack.node_flops = 100.0;      // 100 flop/s
  rack.link_bandwidth = 10.0;   // 10 B/s
  rack.link_latency = 0.5;
  rack.tor_bandwidth = 15.0;    // the star's switch fabric
  rack.tor_latency = 0.0;
  rack.shared_tor = shared_switch;
  return to_cluster(mtsched::platform::one_rack("tiny", rack));
}

// Resource ids follow registration order: node n's cpu, uplink and
// downlink are 3n, 3n + 1 and 3n + 2; the switch fabric, when shared, is 12.

TEST(ClusterSim, RegistersResourcesPerNode) {
  Engine e;
  ClusterSim cs(e, tiny());
  // 4 nodes x (cpu + up + down) + switch fabric.
  EXPECT_EQ(e.num_resources(), 13u);
  EXPECT_DOUBLE_EQ(e.capacity(0), 100.0);   // cpu of node 0
  EXPECT_DOUBLE_EQ(e.capacity(10), 10.0);   // uplink of node 3
  EXPECT_DOUBLE_EQ(e.capacity(12), 15.0);   // the fabric
  ClusterLayout layout(tiny());
  // The layout has the same resources without an engine.
  const auto caps = layout.capacities();
  EXPECT_EQ(std::vector<double>(caps.begin(), caps.end()),
            (std::vector<double>{100, 10, 10, 100, 10, 10, 100, 10, 10, 100,
                                 10, 10, 15}));
  Ptask t;
  t.host_of_rank = {4};  // no such node
  t.flops = {1.0};
  EXPECT_THROW(layout.usage(t), InvalidArgument);
  // The ids are the layout's only on an engine that has no other
  // resources.
  Engine used;
  used.add_resource(1.0);
  EXPECT_THROW(ClusterSim(used, tiny()), InvalidArgument);
}

TEST(ClusterSim, NoBackboneResourceForNonBlockingSwitch) {
  Engine e;
  ClusterSim cs(e, tiny(/*shared_switch=*/false));
  EXPECT_EQ(e.num_resources(), 12u);
  // A transfer charges the two node links and no fabric.
  ClusterLayout layout(tiny(/*shared_switch=*/false));
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flows = {{0, 1, 30.0}};
  const PtaskUsage u = layout.usage(t);
  ASSERT_EQ(u.uses.size(), 2u);
  EXPECT_EQ(u.uses[0].resource, 1u);  // uplink of node 0
  EXPECT_EQ(u.uses[1].resource, 5u);  // downlink of node 1
}

TEST(Ptask, ComputeOnlySoloDuration) {
  Engine e;
  ClusterSim cs(e, tiny());
  ClusterLayout layout(tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flops = {200.0, 100.0};  // bottleneck: 200/100 = 2 s
  EXPECT_DOUBLE_EQ(solo_duration(layout, t), 2.0);
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(Ptask, CommOnlyIncludesLatencyOnce) {
  Engine e;
  ClusterSim cs(e, tiny());
  ClusterLayout layout(tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flows = {{0, 1, 30.0}};  // 30 B over 10 B/s links -> 3 s + 1 s latency
  EXPECT_DOUBLE_EQ(solo_duration(layout, t), 4.0);
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 4.0);
}

TEST(Ptask, ComputationAndCommunicationOverlap) {
  // L07: progress is bound by the bottleneck, not the sum.
  ClusterLayout layout(tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flops = {500.0, 0.0};  // 5 s of compute on node 0
  t.flows = {{0, 1, 20.0}};  // 2 s of transfer
  EXPECT_DOUBLE_EQ(solo_duration(layout, t), 5.0 + 1.0);  // compute + latency
}

TEST(Ptask, LocalCopiesUseNoNetwork) {
  ClusterLayout layout(tiny());
  Ptask t;
  t.host_of_rank = {2, 2};  // both ranks on node 2
  t.flows = {{0, 1, 1e9}};  // huge, but local
  EXPECT_DOUBLE_EQ(solo_duration(layout, t), 0.0);
}

TEST(Ptask, BackboneLimitsAggregateTraffic) {
  Engine e;
  ClusterSim cs(e, tiny());
  // Two disjoint transfers of 30 B each: links could carry both at 10 B/s,
  // but the 15 B/s backbone halves the rates.
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    Ptask t;
    t.host_of_rank = {i * 2, i * 2 + 1};
    t.flows = {{0, 1, 30.0}};
    cs.submit_ptask(t, [&](double when) { done.push_back(when); });
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // 60 B total through 15 B/s backbone -> 4 s of transfer + 1 s latency.
  EXPECT_DOUBLE_EQ(done[0], 5.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);
}

TEST(Ptask, LinkContentionBetweenTransfersFromOneNode) {
  Engine e;
  ClusterSim cs(e, tiny());
  // Two transfers leaving node 0 share its uplink (10 B/s).
  std::vector<double> done;
  for (int dst : {1, 2}) {
    Ptask t;
    t.host_of_rank = {0, dst};
    t.flows = {{0, 1, 20.0}};
    cs.submit_ptask(t, [&](double when) { done.push_back(when); });
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // 40 B through the shared 10 B/s uplink -> 4 s + 1 s latency.
  EXPECT_DOUBLE_EQ(done[0], 5.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);
}

TEST(Ptask, ValidationErrors) {
  Engine e;
  ClusterSim cs(e, tiny());
  ClusterLayout layout(tiny());
  Ptask t;
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);  // no ranks
  t.host_of_rank = {0, 9};  // bad node
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.host_of_rank = {0, 1};
  t.flops = {1.0};  // size mismatch
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.flops = {1.0, -1.0};  // negative
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.flops.clear();
  t.flows = {{0, 2, 1.0}};  // destination rank out of range
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.flows = {{2, 0, 1.0}};  // source rank out of range
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.flows = {{0, 1, 1.0}, {1, 0, -1.0}};  // negative bytes
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  EXPECT_THROW(solo_duration(layout, t), InvalidArgument);
  // A rejected ptask leaves no trace: the next one is charged afresh.
  t.flows = {{0, 1, 30.0}};
  EXPECT_DOUBLE_EQ(solo_duration(layout, t), 4.0);
}

TEST(Ptask, FlowsOnOneResourceSumInListOrder) {
  ClusterLayout layout(tiny());
  Ptask t;
  t.host_of_rank = {0, 1, 2, 0};
  t.flops = {100.0, 0.0, 0.0, 50.0};  // ranks 0 and 3 share node 0's cpu
  t.flows = {{0, 1, 10.0}, {0, 2, 0.0}, {3, 2, 5.0}, {0, 3, 7.0}};
  const PtaskUsage u = layout.usage(t);
  // cpu0 150; up0 10 + 5 (rank 3 is on node 0; the 0 -> 3 flow is local);
  // down1 10; down2 5; fabric 15. Ascending ids, zero-byte flow skipped.
  ASSERT_EQ(u.uses.size(), 5u);
  const std::vector<std::pair<ResourceId, double>> want = {
      {0, 150.0}, {1, 15.0}, {5, 10.0}, {8, 5.0}, {12, 15.0}};
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(u.uses[k].resource, want[k].first) << k;
    EXPECT_EQ(u.uses[k].weight, want[k].second) << k;
  }
  EXPECT_EQ(u.latency, 1.0);
}

TEST(RedistributionPtask, MapsByteMatrixAcrossPlacements) {
  mtsched::redist::RedistPlan plan{2, 3, {{0, 0, 5.0}, {1, 2, 7.0}}};
  const auto t = make_redistribution_ptask({0, 1}, {2, 3, 1}, plan);
  EXPECT_EQ(t.host_of_rank, (std::vector<int>{0, 1, 2, 3, 1}));
  // src rank 0 -> dst rank 0 (node 2); src rank 1 -> dst rank 2 (node 1).
  EXPECT_EQ(t.flows, (std::vector<Flow>{{0, 2, 5.0}, {1, 4, 7.0}}));
  EXPECT_TRUE(t.flops.empty());
}

TEST(RedistributionPtask, ShapeMismatchThrows) {
  const auto plan = mtsched::redist::plan_block_redistribution(10, 2, 2);
  EXPECT_THROW(make_redistribution_ptask({0}, {1, 2}, plan), InvalidArgument);
  EXPECT_THROW(make_redistribution_ptask({0, 1}, {2}, plan), InvalidArgument);
}

/// The fused redistribution charge equals the plan -> ptask -> usage path
/// exactly (same weights, same order, same latency) for every pair of
/// allocation sizes, with placements that share nodes (local copies).
void expect_fused_charge_exact(const mtsched::platform::ClusterSpec& spec) {
  ClusterLayout layout(spec);
  const int P = spec.num_nodes;
  std::vector<Use> pool;
  for (const int n : {2000, 3001}) {
    for (int p_src = 1; p_src <= 32; ++p_src) {
      for (int p_dst = 1; p_dst <= 32; ++p_dst) {
        // Destination shifted by a few nodes from the source, and the
        // same first nodes: both overlap the source's nodes.
        for (const int shift : {0, 3, p_src / 2}) {
          std::vector<int> src, dst;
          for (int k = 0; k < p_src; ++k) src.push_back(k);
          for (int k = 0; k < p_dst; ++k) dst.push_back((k + shift) % P);
          const auto want = layout.usage(make_redistribution_ptask(
              src, dst,
              mtsched::redist::plan_block_redistribution(n, p_src, p_dst)));
          pool.assign(1, Use{0, -1.0});  // appends after existing entries
          const double latency = layout.redistribution_usage(n, src, dst, pool);
          ASSERT_EQ(pool.size(), want.uses.size() + 1)
              << n << " " << p_src << " " << p_dst << " " << shift;
          for (std::size_t k = 0; k < want.uses.size(); ++k) {
            EXPECT_EQ(pool[k + 1].resource, want.uses[k].resource);
            EXPECT_EQ(pool[k + 1].weight, want.uses[k].weight);
          }
          EXPECT_EQ(latency, want.latency);
        }
      }
    }
  }
}

TEST(FusedCharge, MatchesPtaskUsageOnStar) {
  expect_fused_charge_exact(mtsched::platform::bayreuth32());
}

TEST(FusedCharge, MatchesPtaskUsageOnHier4x8) {
  expect_fused_charge_exact(*mtsched::platform::named_platform("hier4x8"));
}

TEST(FusedCharge, AllLocalCopiesChargeNothing) {
  ClusterLayout layout(tiny());
  std::vector<Use> pool;
  EXPECT_EQ(layout.redistribution_usage(100, std::vector<int>{2, 1},
                                        std::vector<int>{2, 1}, pool),
            0.0);
  EXPECT_TRUE(pool.empty());
  EXPECT_THROW(layout.redistribution_usage(100, std::vector<int>{4},
                                           std::vector<int>{0}, pool),
               InvalidArgument);
}

TEST(Ptask, ZeroUsageCompletesInstantly) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0};
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

}  // namespace
