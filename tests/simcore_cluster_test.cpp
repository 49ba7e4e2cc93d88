// Tests for cluster resource wiring and the L07-style parallel-task model.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

namespace {

using namespace mtsched::simcore;
using mtsched::core::InvalidArgument;
using mtsched::core::Matrix;

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

TEST(ClusterSim, RegistersResourcesPerNode) {
  Engine e;
  ClusterSim cs(e, tiny());
  // 4 nodes x (cpu + up + down) + switch fabric.
  EXPECT_EQ(e.num_resources(), 13u);
  EXPECT_DOUBLE_EQ(e.capacity(cs.cpu(0)), 100.0);
  EXPECT_DOUBLE_EQ(e.capacity(cs.uplink(3)), 10.0);
  EXPECT_DOUBLE_EQ(e.capacity(cs.tor(0)), 15.0);
  EXPECT_THROW(cs.cpu(4), InvalidArgument);
}

TEST(ClusterSim, NoBackboneResourceForNonBlockingSwitch) {
  Engine e;
  ClusterSim cs(e, tiny(/*shared_switch=*/false));
  EXPECT_EQ(e.num_resources(), 12u);
  EXPECT_THROW(cs.tor(0), InvalidArgument);
}

TEST(Ptask, ComputeOnlySoloDuration) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flops = {200.0, 100.0};  // bottleneck: 200/100 = 2 s
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 2.0);
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(Ptask, CommOnlyIncludesLatencyOnce) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.bytes = Matrix<double>(2, 2);
  t.bytes(0, 1) = 30.0;  // 30 B over 10 B/s links -> 3 s + 1 s latency
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 4.0);
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 4.0);
}

TEST(Ptask, ComputationAndCommunicationOverlap) {
  // L07: progress is bound by the bottleneck, not the sum.
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flops = {500.0, 0.0};  // 5 s of compute on node 0
  t.bytes = Matrix<double>(2, 2);
  t.bytes(0, 1) = 20.0;  // 2 s of transfer
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 5.0 + 1.0);  // compute + latency
}

TEST(Ptask, LocalCopiesUseNoNetwork) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {2, 2};  // both ranks on node 2
  t.bytes = Matrix<double>(2, 2);
  t.bytes(0, 1) = 1e9;  // huge, but local
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 0.0);
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
    t.bytes = Matrix<double>(2, 2);
    t.bytes(0, 1) = 30.0;
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
    t.bytes = Matrix<double>(2, 2);
    t.bytes(0, 1) = 20.0;
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
  t.bytes = Matrix<double>(3, 3);  // wrong shape
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
}

TEST(RedistributionPtask, MapsByteMatrixAcrossPlacements) {
  Matrix<double> bytes(2, 3);
  bytes(0, 0) = 5.0;
  bytes(1, 2) = 7.0;
  const auto t = make_redistribution_ptask({0, 1}, {2, 3, 1}, bytes, "r");
  ASSERT_EQ(t.host_of_rank.size(), 5u);
  EXPECT_DOUBLE_EQ(t.bytes(0, 2), 5.0);  // src rank 0 -> dst rank 0 (node 2)
  EXPECT_DOUBLE_EQ(t.bytes(1, 4), 7.0);  // src rank 1 -> dst rank 2 (node 1)
  EXPECT_DOUBLE_EQ(t.bytes.total(), 12.0);
  EXPECT_TRUE(t.flops.empty());
}

TEST(RedistributionPtask, ShapeMismatchThrows) {
  Matrix<double> bytes(2, 2);
  EXPECT_THROW(make_redistribution_ptask({0}, {1, 2}, bytes),
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
