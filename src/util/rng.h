/// \file rng.h
/// Deterministic pseudo-random number generation.
///
/// All stochastic components of OpenVM1 (netlist generation, placement
/// seeding, tie-breaking) draw from this RNG so that a given seed reproduces
/// the exact same design and metrics on every platform. The generator is
/// splitmix64 + xoshiro256**, which is fast and has no platform-dependent
/// behaviour (unlike std::uniform_int_distribution).
#pragma once

#include <cstdint>
#include <vector>

namespace vm1 {

/// Deterministic, seedable RNG with convenience sampling helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform(std::uint64_t n);

  /// Uniform integer in [lo, hi] (closed). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform_real();

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform_real() < p; }

  /// Sample an index from unnormalized non-negative weights. Requires a
  /// positive total weight.
  std::size_t weighted_pick(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4] = {};
};

}  // namespace vm1
