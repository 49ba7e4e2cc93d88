// Tests for platform descriptions and the platform file parser.
#include <gtest/gtest.h>

#include <climits>
#include <string>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/platform/parser.hpp"
#include "mtsched/platform/topology.hpp"

namespace {

using namespace mtsched::platform;
using mtsched::core::InvalidArgument;
using mtsched::core::ParseError;

const std::string kHead = std::string(kPlatformSchema) + "\n";

TEST(Presets, Bayreuth32MatchesThePaper) {
  const auto c = bayreuth32();
  EXPECT_EQ(c.num_nodes, 32);
  EXPECT_DOUBLE_EQ(c.node.flops, 250e6);  // Java MM calibration
  ASSERT_EQ(c.topology().num_racks(), 1);  // a star
  const RackSpec& r = c.topology().racks.front();
  EXPECT_DOUBLE_EQ(r.link_bandwidth, 125e6);  // 1 Gb/s
  EXPECT_DOUBLE_EQ(r.link_latency, 100e-6);   // 100 us
  EXPECT_TRUE(r.shared_tor);
  EXPECT_NO_THROW(c.validate());
}

TEST(Presets, CrayXt4MatchesFigure2) {
  const auto c = cray_xt4();
  EXPECT_DOUBLE_EQ(c.node.flops, 4165.3e6);  // PDGEMM rate on Franklin
  ASSERT_EQ(c.topology().num_racks(), 1);
  EXPECT_FALSE(c.topology().racks.front().shared_tor);
  EXPECT_NO_THROW(c.validate());
}

TEST(RouteLatency, TwoLinksPlusBackbone) {
  RackSpec rack;
  rack.nodes = 4;
  rack.link_latency = 1e-4;
  rack.tor_latency = 5e-5;
  const Topology star = one_rack("star4", rack);
  EXPECT_DOUBLE_EQ(star.route_latency(0, 1), 2.5e-4);
  EXPECT_DOUBLE_EQ(star.max_route_latency(), 2.5e-4);
}

TEST(Validate, CatchesNonPhysicalValues) {
  ClusterSpec c = bayreuth32();
  c.num_nodes = 0;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = bayreuth32();
  c.node.flops = -1;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = bayreuth32();
  c.num_nodes = 16;  // the topology still has 32
  EXPECT_THROW(c.validate(), InvalidArgument);
  RackSpec rack = bayreuth32().topology().racks.front();
  rack.link_bandwidth = 0;
  EXPECT_THROW((void)to_cluster(one_rack("bad", rack)), InvalidArgument);
  rack = bayreuth32().topology().racks.front();
  rack.link_latency = -1e-6;
  EXPECT_THROW((void)to_cluster(one_rack("bad", rack)), InvalidArgument);
}

TEST(ClusterSpecEquality, ComparesEveryFieldAndTheTopologyByValue) {
  EXPECT_TRUE(bayreuth32() == bayreuth32());  // separate topology objects
  const ClusterSpec copy = bayreuth32();
  EXPECT_TRUE(ClusterSpec(copy) == copy);
  EXPECT_TRUE(to_cluster(bayreuth32().topology()) == bayreuth32());
  EXPECT_FALSE(bayreuth32() == bayreuth32(16));
  EXPECT_FALSE(bayreuth32() == bayreuth32(32, 300e6));
  EXPECT_FALSE(bayreuth32() == *named_platform("hier1x32"));
  EXPECT_FALSE(bayreuth32() == *named_platform("hier4x8"));
  EXPECT_FALSE(bayreuth32() == heterogeneous_cluster(32, 150e6, 350e6));
  ClusterSpec renamed = bayreuth32();
  renamed.name = "other";
  EXPECT_FALSE(renamed == bayreuth32());
  RackSpec rack = bayreuth32().topology().racks.front();
  rack.link_latency *= 2.0;
  EXPECT_FALSE(to_cluster(one_rack("bayreuth32", rack)) == bayreuth32());
}

TEST(Parser, RoundTripsPresets) {
  for (const auto& spec : {bayreuth32(), cray_xt4()}) {
    const auto parsed = parse_platform(to_text(spec.topology()));
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.num_nodes, spec.num_nodes);
    EXPECT_DOUBLE_EQ(parsed.node.flops, spec.node.flops);
    EXPECT_EQ(parsed.topology(), spec.topology());
  }
}

TEST(Parser, AcceptsCommentsAndWhitespace) {
  const auto c = parse_platform(
      "# my cluster\n" + kHead +
      "  name = test   # trailing comment\n"
      "[rack]\n"
      "nodes = 8\n"
      "node_flops = 1e9\n");
  EXPECT_EQ(c.name, "test");
  EXPECT_EQ(c.num_nodes, 8);
  EXPECT_DOUBLE_EQ(c.node.flops, 1e9);
}

TEST(Parser, MissingKeysKeepDefaults) {
  const auto c = parse_platform(kHead + "[rack]\nnodes = 4\n");
  EXPECT_EQ(c.num_nodes, 4);
  EXPECT_DOUBLE_EQ(c.node.flops, RackSpec{}.node_flops);
}

TEST(Parser, RejectsUnknownKey) {
  EXPECT_THROW(parse_platform(kHead + "[rack]\ncores = 4\n"), ParseError);
}

TEST(Parser, RejectsMalformedValue) {
  EXPECT_THROW(parse_platform(kHead + "[rack]\nnodes = four\n"), ParseError);
  EXPECT_THROW(parse_platform(kHead + "[rack]\nshared_tor = maybe\n"),
               ParseError);
  EXPECT_THROW(parse_platform(kHead + "just a line\n"), ParseError);
}

TEST(Parser, RejectsIntegersOutsideIntRange) {
  // Converting these doubles to int would be undefined behaviour; the
  // parser must reject them before the conversion.
  for (const char* v : {"1e300", "nan", "3e9", "-1e12"}) {
    EXPECT_THROW(parse_platform(kHead + "[rack]\nnodes = " + v + "\n"),
                 ParseError)
        << v;
    EXPECT_THROW(parse_platform(kHead + "[rack]\ncount = " + v + "\n"),
                 ParseError)
        << v;
  }
}

TEST(Parser, RejectsNodeTotalsPastIntMax) {
  // 65536 racks x 65537 nodes overflows int; rejected before the 65536
  // racks are expanded.
  EXPECT_THROW(parse_platform(kHead + "[rack]\ncount = 65536\nnodes = 65537\n"),
               ParseError);
  // Two sections that each fit but together do not.
  const std::string half =
      "[rack]\nnodes = " + std::to_string(INT_MAX / 2 + 1) + "\n";
  EXPECT_THROW(parse_platform(kHead + half + half), ParseError);
}

TEST(Parser, BooleanForms) {
  const auto shared_tor = [](const std::string& v) {
    return parse_platform(kHead + "[rack]\nnodes = 2\nshared_tor = " + v +
                          "\n")
        .topology()
        .racks.front()
        .shared_tor;
  };
  EXPECT_TRUE(shared_tor("true"));
  EXPECT_TRUE(shared_tor("1"));
  EXPECT_FALSE(shared_tor("false"));
  EXPECT_FALSE(shared_tor("0"));
}

TEST(Parser, ValidatesResult) {
  EXPECT_THROW(parse_platform(kHead + "[rack]\nnodes = 0\n"),
               InvalidArgument);
}

}  // namespace
