#include "util/rng.h"

#include <cassert>

namespace vm1 {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
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

std::uint64_t Rng::uniform(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<std::int64_t>(
                  uniform(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::uniform_real() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::weighted_pick(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double r = uniform_real() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace vm1
