/// Seeded fuzz harness proving the dirty-window incremental engine exact:
/// for every seed, a random small design is optimized twice — incremental
/// on vs off — and the final placements, objective, HPWL, alignment count,
/// and legality must match bit-for-bit. Variants cover serial and parallel
/// pools, fault-injection drills (VM1_FAULTS schedules are part of the
/// window signature, so they replay identically in both modes), and two
/// concurrent runs sharing the in-memory solve cache on 4-thread pools.
///
/// Options are chosen so every solver limit that binds is deterministic
/// (node counts), never wall-clock: theta = 0 plus several inner
/// iterations drives the run into the regime where memo hits actually
/// occur, relying on the zero-change early exit for termination.
///
/// Sanitizer builds define VM1_EQUIV_LIGHT to shrink the seed ranges.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "cache/solve_cache.h"
#include "core/vm1opt.h"
#include "design/legality.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace vm1 {
namespace {

#ifdef VM1_EQUIV_LIGHT
constexpr std::uint64_t kSerialSeeds = 6;
constexpr std::uint64_t kVariantSeeds = 3;
#else
constexpr std::uint64_t kSerialSeeds = 50;
constexpr std::uint64_t kVariantSeeds = 6;
#endif

Design random_design(std::uint64_t seed) {
  Rng rng(seed);
  CellArch arch = rng.chance(0.5) ? CellArch::kClosedM1 : CellArch::kOpenM1;
  DesignOptions dopt;
  dopt.scale = 0.25 + 0.25 * rng.uniform_real();
  dopt.utilization = 0.55 + 0.25 * rng.uniform_real();
  dopt.seed = rng.next() | 1;
  Design d = make_design("tiny", arch, dopt);
  GlobalPlaceOptions gp;
  gp.seed = rng.next() | 1;
  global_place(d, gp);
  legalize(d);
  return d;
}

VM1OptOptions equiv_opts(std::uint64_t seed, unsigned threads) {
  Rng rng(seed * 7919 + 13);
  VM1OptOptions o;
  int bw = 10 + static_cast<int>(rng.uniform(10));
  int lx = 2 + static_cast<int>(rng.uniform(3));
  int ly = static_cast<int>(rng.uniform(2));
  o.sequence = {ParamSet{bw, 2, lx, ly}};
  o.theta = 0;  // run until the zero-change exit (or max_inner_iters)
  o.max_inner_iters = 5;
  o.threads = threads;
  o.params.alpha = 20 + 40 * rng.uniform_real();
  // Deterministic truncation only: the node limit binds, wall-clock never.
  o.mip.max_nodes = 40;
  o.mip.time_limit_sec = 3600;
  o.mip.lp_options.time_limit_sec = 0;  // unlimited
  return o;
}

struct RunResult {
  std::vector<Placement> placements;
  double objective = 0;
  double hpwl = 0;
  long alignments = 0;
  bool legal = false;
  long skipped = 0;
  long signature_hits = 0;
  long cache_hits = 0;
  long milp_solves = 0;
};

RunResult run(std::uint64_t seed, bool incremental, unsigned threads,
              CacheBackend* cache = nullptr) {
  Design d = random_design(seed);
  VM1OptOptions o = equiv_opts(seed, threads);
  o.incremental = incremental;
  o.cache = cache;
  VM1OptStats s = vm1opt(d, o);
  EXPECT_EQ(s.solved + s.fallback_rounding + s.fallback_greedy +
                s.rejected_audit + s.kept + s.faulted + s.skipped +
                s.cached_remote,
            s.windows)
      << "outcome buckets must sum to windows (seed " << seed << ")";
  RunResult r;
  r.placements = d.placements();
  r.objective = s.final.value;
  r.hpwl = s.final.hpwl;
  r.alignments = s.final.alignments;
  r.legal = is_legal(d);
  r.skipped = s.skipped;
  r.signature_hits = s.signature_hits;
  r.cache_hits = s.cache_hits;
  r.milp_solves = s.solved + s.fallback_rounding + s.fallback_greedy;
  return r;
}

void expect_identical(const RunResult& inc, const RunResult& full,
                      std::uint64_t seed) {
  ASSERT_EQ(inc.placements.size(), full.placements.size());
  for (std::size_t i = 0; i < inc.placements.size(); ++i) {
    ASSERT_EQ(inc.placements[i], full.placements[i])
        << "seed " << seed << " instance " << i;
  }
  // Bitwise comparisons on purpose: both modes must walk the identical
  // arithmetic path, not merely land within a tolerance.
  EXPECT_EQ(inc.objective, full.objective) << "seed " << seed;
  EXPECT_EQ(inc.hpwl, full.hpwl) << "seed " << seed;
  EXPECT_EQ(inc.alignments, full.alignments) << "seed " << seed;
  EXPECT_EQ(inc.legal, full.legal) << "seed " << seed;
  EXPECT_TRUE(inc.legal) << "seed " << seed;
}

void expect_identical_vs_full(const RunResult& inc, const RunResult& full,
                              std::uint64_t seed) {
  expect_identical(inc, full, seed);
  EXPECT_EQ(full.skipped, 0) << "full mode must not skip (seed " << seed
                             << ")";
}

TEST(IncrementalEquiv, SerialSeeds) {
  long total_skipped = 0;
  for (std::uint64_t seed = 1; seed <= kSerialSeeds; ++seed) {
    RunResult inc = run(seed, /*incremental=*/true, /*threads=*/1);
    RunResult full = run(seed, /*incremental=*/false, /*threads=*/1);
    expect_identical_vs_full(inc, full, seed);
    total_skipped += inc.skipped;
  }
  // The harness must actually exercise the skip path, not vacuously pass.
  EXPECT_GT(total_skipped, 0) << "no seed ever produced a signature hit";
}

TEST(IncrementalEquiv, ParallelSeeds) {
  for (std::uint64_t seed = 101; seed <= 100 + kVariantSeeds; ++seed) {
    RunResult inc = run(seed, /*incremental=*/true, /*threads=*/3);
    RunResult full = run(seed, /*incremental=*/false, /*threads=*/3);
    expect_identical_vs_full(inc, full, seed);
  }
}

TEST(IncrementalEquiv, ParallelMatchesSerialIncremental) {
  for (std::uint64_t seed = 201; seed <= 200 + kVariantSeeds; ++seed) {
    RunResult serial = run(seed, /*incremental=*/true, /*threads=*/1);
    RunResult parallel = run(seed, /*incremental=*/true, /*threads=*/3);
    expect_identical(parallel, serial, seed);
    EXPECT_EQ(parallel.skipped, serial.skipped) << "seed " << seed;
  }
}

TEST(IncrementalEquiv, ParallelWarmRerunThroughTheMemoryCache) {
  // Two cold runs on four pool threads each share the in-memory backend,
  // as two service jobs do: one run's write-through races the other's
  // probes. Both match a run without the cache, and a warm rerun then
  // replays every window: bit-identical, and without a MILP.
  for (std::uint64_t seed = 501; seed <= 500 + kVariantSeeds; ++seed) {
    RunResult ref = run(seed, /*incremental=*/true, /*threads=*/4);
    cache::MemoryCache mc;
    RunResult cold[2];
    std::thread other(
        [&] { cold[1] = run(seed, /*incremental=*/true, /*threads=*/4, &mc); });
    cold[0] = run(seed, /*incremental=*/true, /*threads=*/4, &mc);
    other.join();
    RunResult warm = run(seed, /*incremental=*/true, /*threads=*/4, &mc);
    expect_identical(cold[0], ref, seed);
    expect_identical(cold[1], ref, seed);
    expect_identical(warm, ref, seed);
    EXPECT_GT(ref.milp_solves, 0) << "seed " << seed;
    EXPECT_GT(warm.cache_hits, 0) << "seed " << seed;
    EXPECT_EQ(warm.milp_solves, 0) << "seed " << seed;
  }
}

class IncrementalEquivFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::set_config(fault::parse_spec("rate=0.25,seed=11"));
  }
  void TearDown() override { fault::set_config(fault::Config{}); }
};

TEST_F(IncrementalEquivFaults, SerialSeedsUnderFaults) {
  for (std::uint64_t seed = 301; seed <= 300 + kVariantSeeds; ++seed) {
    RunResult inc = run(seed, /*incremental=*/true, /*threads=*/1);
    RunResult full = run(seed, /*incremental=*/false, /*threads=*/1);
    expect_identical_vs_full(inc, full, seed);
  }
}

TEST_F(IncrementalEquivFaults, ParallelSeedsUnderFaults) {
  for (std::uint64_t seed = 401; seed <= 400 + kVariantSeeds; ++seed) {
    RunResult inc = run(seed, /*incremental=*/true, /*threads=*/3);
    RunResult full = run(seed, /*incremental=*/false, /*threads=*/3);
    expect_identical_vs_full(inc, full, seed);
  }
}

}  // namespace
}  // namespace vm1
