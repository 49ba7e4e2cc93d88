// Text platform descriptions, so experiments can run against
// user-provided platforms without recompiling.
//
// The format is versioned: `mtsched.platform.v1` describes a topology as
// rack/core sections (a star is a single [rack]),
//
//   mtsched.platform.v1
//   name = hier4x8
//   [core]
//   bandwidth = 16e9          # bytes/s
//   latency = 0               # seconds
//   shared = true
//   [rack]
//   count = 4                 # expands into 4 identical racks
//   nodes = 8
//   node_flops = 250e6
//   link_bandwidth = 125e6    # bytes/s
//   link_latency = 100e-6     # seconds
//   tor_bandwidth = 16e9
//   tor_latency = 0
//   shared_tor = true
//   oversubscription = 4      # uplink = nodes*link_bandwidth/this
//   uplink_bandwidth = 0      # explicit override; 0 = derive
//   node_speeds = 2e8 3e8 ... # optional, one entry per node
//
// The header line is mandatory: a file without it is rejected with a
// core::ParseError naming the missing header.
#pragma once

#include <string>

#include "mtsched/platform/cluster.hpp"
#include "mtsched/platform/topology.hpp"

namespace mtsched::platform {

/// Header line identifying the versioned platform format.
inline constexpr const char* kPlatformSchema = "mtsched.platform.v1";

/// Most racks one document may expand to, summed over the `count` of
/// every [rack] section (the built-in platforms have at most 4).
inline constexpr int kMaxRacks = 65536;

/// Parses an mtsched.platform.v1 document (the header line must be
/// present). Raises core::ParseError on malformed input, and before any
/// expansion on more than kMaxRacks racks or INT_MAX nodes.
Topology parse_topology(const std::string& text);

/// Parses an mtsched.platform.v1 document into the ClusterSpec view over
/// it (to_cluster(parse_topology(text))).
ClusterSpec parse_platform(const std::string& text);

}  // namespace mtsched::platform
