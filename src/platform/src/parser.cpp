#include "mtsched/platform/parser.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "mtsched/core/error.hpp"

namespace mtsched::platform {

namespace {

std::string trim(const std::string& s) {
  auto b = s.begin();
  auto e = s.end();
  while (b != e && std::isspace(static_cast<unsigned char>(*b))) ++b;
  while (e != b && std::isspace(static_cast<unsigned char>(*(e - 1)))) --e;
  return std::string(b, e);
}

double parse_double(const std::string& v, std::size_t lineno) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    throw core::ParseError("bad numeric value '" + v + "' on line " +
                           std::to_string(lineno));
  }
}

bool parse_bool(const std::string& v, std::size_t lineno) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw core::ParseError("bad boolean value '" + v + "' on line " +
                         std::to_string(lineno));
}

int parse_int(const std::string& v, std::size_t lineno) {
  const double d = parse_double(v, lineno);
  // Range-check before the cast: converting NaN or an out-of-range double
  // to int is undefined behaviour.
  if (!(d >= INT_MIN && d <= INT_MAX) || std::trunc(d) != d) {
    throw core::ParseError("expected integer, got '" + v + "' on line " +
                           std::to_string(lineno));
  }
  return static_cast<int>(d);
}

std::vector<double> parse_speeds(const std::string& v, std::size_t lineno) {
  std::istringstream vs(v);
  std::string tok;
  std::vector<double> speeds;
  while (vs >> tok) speeds.push_back(parse_double(tok, lineno));
  return speeds;
}

/// The first line that survives comment stripping and trimming.
std::string first_significant_line(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (!line.empty()) return line;
  }
  return {};
}

}  // namespace

Topology parse_topology(const std::string& text) {
  if (first_significant_line(text) != kPlatformSchema) {
    throw core::ParseError(std::string("missing '") + kPlatformSchema +
                           "' header line");
  }
  Topology topo;
  topo.racks.clear();

  // Section state: "" = top-level, "core", "rack".
  std::string section;
  RackSpec rack;
  int rack_count = 1;
  bool header_seen = false;
  std::int64_t total_racks = 0;
  std::int64_t total_nodes = 0;
  auto flush_rack = [&] {
    if (section != "rack") return;
    // Bound the rack and node totals before expanding `count`, so that
    // neither the expansion nor Topology::num_nodes() can run away.
    // Non-positive node counts are left to validate().
    total_racks += rack_count;
    if (total_racks > kMaxRacks) {
      throw core::ParseError("platform has more than " +
                             std::to_string(kMaxRacks) + " racks");
    }
    if (rack.nodes > 0) {
      total_nodes += static_cast<std::int64_t>(rack.nodes) * rack_count;
      if (total_nodes > INT_MAX) {
        throw core::ParseError("platform has more than INT_MAX nodes");
      }
    }
    for (int i = 0; i < rack_count; ++i) topo.racks.push_back(rack);
  };

  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (!header_seen) {
      // first_significant_line already verified this equals the schema id
      header_seen = true;
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw core::ParseError("malformed section header on line " +
                               std::to_string(lineno));
      }
      flush_rack();
      section = trim(line.substr(1, line.size() - 2));
      if (section == "rack") {
        rack = RackSpec{};
        rack_count = 1;
      } else if (section != "core") {
        throw core::ParseError("unknown section '[" + section +
                               "]' on line " + std::to_string(lineno));
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw core::ParseError("expected key = value on line " +
                             std::to_string(lineno));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (section.empty()) {
      if (key == "name") {
        topo.name = value;
      } else {
        throw core::ParseError("unknown top-level key '" + key +
                               "' on line " + std::to_string(lineno));
      }
    } else if (section == "core") {
      if (key == "bandwidth") {
        topo.core.bandwidth = parse_double(value, lineno);
      } else if (key == "latency") {
        topo.core.latency = parse_double(value, lineno);
      } else if (key == "shared") {
        topo.core.shared = parse_bool(value, lineno);
      } else {
        throw core::ParseError("unknown [core] key '" + key + "' on line " +
                               std::to_string(lineno));
      }
    } else {  // rack
      if (key == "count") {
        rack_count = parse_int(value, lineno);
        if (rack_count < 1) {
          throw core::ParseError("rack count must be >= 1 on line " +
                                 std::to_string(lineno));
        }
      } else if (key == "nodes") {
        rack.nodes = parse_int(value, lineno);
      } else if (key == "node_flops") {
        rack.node_flops = parse_double(value, lineno);
      } else if (key == "link_bandwidth") {
        rack.link_bandwidth = parse_double(value, lineno);
      } else if (key == "link_latency") {
        rack.link_latency = parse_double(value, lineno);
      } else if (key == "tor_bandwidth") {
        rack.tor_bandwidth = parse_double(value, lineno);
      } else if (key == "tor_latency") {
        rack.tor_latency = parse_double(value, lineno);
      } else if (key == "shared_tor") {
        rack.shared_tor = parse_bool(value, lineno);
      } else if (key == "oversubscription") {
        rack.oversubscription = parse_double(value, lineno);
      } else if (key == "uplink_bandwidth") {
        rack.uplink_bandwidth = parse_double(value, lineno);
      } else if (key == "node_speeds") {
        rack.node_speeds = parse_speeds(value, lineno);
      } else {
        throw core::ParseError("unknown [rack] key '" + key + "' on line " +
                               std::to_string(lineno));
      }
    }
  }
  flush_rack();
  topo.validate();
  return topo;
}

ClusterSpec parse_platform(const std::string& text) {
  return to_cluster(parse_topology(text));
}

}  // namespace mtsched::platform
