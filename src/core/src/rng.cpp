#include "mtsched/core/rng.hpp"

#include <cmath>

#include "mtsched/core/error.hpp"

namespace mtsched::core {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MTSCHED_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MTSCHED_REQUIRE(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Unbiased rejection sampling (Lemire-style threshold).
  const std::uint64_t threshold = (0 - span) % span;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % span);
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  MTSCHED_REQUIRE(stddev >= 0.0, "stddev must be non-negative");
  return mean + stddev * normal();
}

double Rng::lognormal_unit(double sigma) {
  MTSCHED_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
  // exp(N(-sigma^2/2, sigma)) has expectation exactly 1.
  return std::exp(normal(-0.5 * sigma * sigma, sigma));
}

std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  SplitMix64 sm(a ^ rotl(b, 23) ^ rotl(c, 47));
  std::uint64_t h = sm.next();
  h ^= sm.next() + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

double unit_hash(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return static_cast<double>(hash_mix(a, b + 0x2545F4914F6CDD1Dull, c + 1) >> 11) *
         0x1.0p-53;
}

}  // namespace mtsched::core
