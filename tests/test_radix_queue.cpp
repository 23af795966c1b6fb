#include "route/radix_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace vm1 {
namespace {

/// Keys a random monotone stream adds to the last key popped: many zero
/// steps (equal keys), small integer and fractional steps, and jumps up to
/// the largest finite double.
double draw_step(Rng& rng, double last) {
  constexpr double kMax = std::numeric_limits<double>::max();
  double kind = rng.uniform_real();
  if (kind < 0.35) return 0.0;
  if (kind < 0.7) return static_cast<double>(rng.uniform_int(1, 4));
  if (kind < 0.85) return 0.25 * static_cast<double>(rng.uniform_int(1, 7));
  if (kind < 0.97) return static_cast<double>(rng.uniform_int(1, 1 << 20));
  return 0.5 * (kMax - last) * rng.uniform_real();  // stays finite
}

/// Seeded streams of interleaved pushes and pops, each push at or above the
/// last key popped, against a std::multiset of (key, value): every pop
/// returns an entry with the oracle's smallest key, every entry comes back
/// exactly once, and the keys come out nondecreasing.
TEST(RadixQueue, MonotoneStreamsMatchMultisetOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(0x5AD1ULL * seed);
    RadixQueue q;
    std::multiset<std::pair<double, std::size_t>> oracle;
    std::vector<int> seen;
    double last = 0.0;
    std::size_t next_value = 0;
    const int ops = static_cast<int>(rng.uniform_int(50, 3000));
    auto pop_one = [&] {
      ASSERT_FALSE(q.empty());
      const RadixQueue::Entry e = q.top();
      q.pop();
      ASSERT_FALSE(oracle.empty());
      ASSERT_EQ(e.key, oracle.begin()->first) << "seed " << seed;
      auto it = oracle.find({e.key, e.value});
      ASSERT_NE(it, oracle.end()) << "seed " << seed << ": unknown entry";
      oracle.erase(it);
      ASSERT_GE(e.key, last) << "seed " << seed;
      last = e.key;
      ++seen[e.value];
    };
    for (int op = 0; op < ops; ++op) {
      if (oracle.empty() || rng.chance(0.55)) {
        double key = last + draw_step(rng, last);
        q.push(key, next_value);
        oracle.insert({key, next_value});
        seen.push_back(0);
        ++next_value;
      } else {
        pop_one();
      }
      ASSERT_EQ(q.size(), oracle.size());
    }
    while (!oracle.empty()) pop_one();
    EXPECT_TRUE(q.empty());
    for (std::size_t v = 0; v < seen.size(); ++v) {
      ASSERT_EQ(seen[v], 1) << "seed " << seed << " value " << v;
    }
  }
}

TEST(RadixQueue, KeysZeroAndLargestFinite) {
  constexpr double kMax = std::numeric_limits<double>::max();
  RadixQueue q;
  q.push(kMax, 0);
  q.push(0.0, 1);
  q.push(std::numeric_limits<double>::denorm_min(), 2);
  q.push(kMax, 3);
  q.push(0.0, 4);
  std::vector<std::pair<double, std::size_t>> got;
  while (!q.empty()) {
    got.push_back({q.top().key, q.top().value});
    q.pop();
  }
  const std::vector<std::pair<double, std::size_t>> want = {
      {0.0, 4},
      {0.0, 1},
      {std::numeric_limits<double>::denorm_min(), 2},
      {kMax, 3},
      {kMax, 0}};
  EXPECT_EQ(got, want);
}

TEST(RadixQueue, EqualKeysPopLastInFirstOut) {
  RadixQueue q;
  for (std::size_t v = 0; v < 5; ++v) q.push(7.5, v);
  q.push(9.0, 5);
  EXPECT_EQ(q.top().value, 4u);
  q.pop();
  q.push(7.5, 6);  // equal to the last key popped
  std::vector<std::size_t> order;
  while (!q.empty()) {
    order.push_back(q.top().value);
    q.pop();
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{6, 3, 2, 1, 0, 5}));
}

/// A push below the last key popped is clamped to it: it comes out before
/// any larger key, and top() reports the key it was pushed with.
TEST(RadixQueue, PushBelowLastKeyComesOutBeforeAnyLargerKey) {
  RadixQueue q;
  q.push(10.0, 0);
  q.push(10.5, 1);
  q.push(1e6, 2);
  EXPECT_EQ(q.top().key, 10.0);
  q.pop();
  q.push(9.75, 3);                       // below the last key popped
  q.push(std::nextafter(10.0, 0.0), 4);  // one ulp below it
  q.push(10.25, 5);
  std::vector<std::pair<double, std::size_t>> got;
  while (!q.empty()) {
    got.push_back({q.top().key, q.top().value});
    q.pop();
  }
  const std::vector<std::pair<double, std::size_t>> want = {
      {std::nextafter(10.0, 0.0), 4}, {9.75, 3}, {10.25, 5}, {10.5, 1},
      {1e6, 2}};
  EXPECT_EQ(got, want);
}

/// clear() between searches leaves no entry and no last key behind: keys
/// below the previous stream's come out in order, unclamped.
TEST(RadixQueue, ClearLeavesNothingBehind) {
  Rng rng(0xC1EA2ULL);
  RadixQueue q;
  for (int round = 0; round < 20; ++round) {
    const double base = 1000.0 * (20 - round);  // each round starts lower
    const int n = static_cast<int>(rng.uniform_int(1, 400));
    for (int i = 0; i < n; ++i) {
      q.push(base + static_cast<double>(rng.uniform_int(0, 64)),
             static_cast<std::size_t>(i));
    }
    for (int i = static_cast<int>(rng.uniform_int(0, n)); i > 0; --i) q.pop();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);

    // Fresh keys below everything above: sorted order, nothing stale.
    std::multiset<double> oracle;
    for (int i = 0; i < 50; ++i) {
      double key = base - 500.0 + static_cast<double>(rng.uniform_int(0, 9));
      q.push(key, 1000 + static_cast<std::size_t>(i));
      oracle.insert(key);
    }
    for (double want : oracle) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.top().key, want) << "round " << round;
      EXPECT_GE(q.top().value, 1000u) << "an entry survived clear()";
      q.pop();
    }
    EXPECT_TRUE(q.empty());
    q.clear();
  }
}

}  // namespace
}  // namespace vm1
