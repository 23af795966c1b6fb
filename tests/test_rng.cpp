#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace vm1 {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.uniform(10), 10u);
  }
}

TEST(Rng, UniformIntClosedRange) {
  Rng r(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform_real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng r(13);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[r.weighted_pick(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng r(99);
  auto a = r.next();
  r.reseed(99);
  EXPECT_EQ(r.next(), a);
}

}  // namespace
}  // namespace vm1
