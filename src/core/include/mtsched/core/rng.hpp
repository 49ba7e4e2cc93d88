// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in mtsched (DAG generation, machine noise) is
// driven by explicit 64-bit seeds through these generators, so experiments
// are reproducible bit-for-bit across platforms. std::mt19937 plus the
// standard <random> distributions are NOT used because the distribution
// implementations are not specified and differ between standard libraries.
#pragma once

#include <cstdint>
#include <vector>

namespace mtsched::core {

/// SplitMix64: tiny, fast generator used for seeding and hashing.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the main generator. Small state, excellent statistical
/// quality, fully portable output sequence.
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal deviate via Box–Muller (deterministic, portable).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal multiplicative factor with E[X] = 1 and the given sigma of
  /// the underlying normal. Used for run-to-run machine noise.
  double lognormal_unit(double sigma);

  /// Fisher–Yates shuffle of a vector (uses uniform_int).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Stateless 64-bit mix of up to three keys; used to build deterministic
/// "frozen noise" surfaces (e.g. per-(n,p) machine efficiency ripples).
std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b = 0x9E3779B97F4A7C15ull,
                       std::uint64_t c = 0xD1B54A32D192ED03ull);

/// Deterministic hash of keys mapped to a double in [0, 1).
double unit_hash(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0);

}  // namespace mtsched::core
