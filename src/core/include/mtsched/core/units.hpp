// Units and conversion helpers.
//
// Conventions used throughout mtsched:
//   time  — seconds, double
//   data  — bytes, double (volumes can exceed 2^32 and enter rate math)
//   work  — floating point operations (flops), double
//   rate  — flops/s for compute, bytes/s for network
#pragma once

namespace mtsched::core {

/// Bits-per-second to bytes-per-second (network bandwidth specs).
constexpr double bps_to_Bps(double bits_per_second) {
  return bits_per_second / 8.0;
}

/// Microseconds to seconds.
constexpr double usec(double microseconds) { return microseconds * 1e-6; }

/// Size in bytes of one double-precision matrix element.
inline constexpr double kElemBytes = 8.0;

}  // namespace mtsched::core
