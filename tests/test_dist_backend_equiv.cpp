/// Seeded fuzz harness proving the processes backend exact: for every
/// seed, a random small design is optimized twice — DistBackend::kThreads
/// vs kProcesses (worker subprocesses over the dist/wire.h protocol) — and
/// the final placements, objective, HPWL, alignment count, and legality
/// must match bit-for-bit. This is the acceptance check for the whole
/// coordinator/worker stack: full-replica binding, per-batch placement
/// sync, signature-checked requests, and the shared serial apply phase.
///
/// Options pin every solver limit that binds to a deterministic quantity
/// (node counts), never wall-clock, so both backends walk the identical
/// arithmetic path. Sanitizer builds define VM1_EQUIV_LIGHT to shrink the
/// seed ranges (the TSan `concurrency` binary runs the light variant; the
/// processes backend creates no pool threads, keeping fork TSan-clean).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/vm1opt.h"
#include "design/legality.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/rng.h"

namespace vm1 {
namespace {

#ifdef VM1_EQUIV_LIGHT
constexpr std::uint64_t kSeeds = 4;
constexpr std::uint64_t kVariantSeeds = 2;
#else
constexpr std::uint64_t kSeeds = 20;
constexpr std::uint64_t kVariantSeeds = 4;
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

VM1OptOptions equiv_opts(std::uint64_t seed) {
  Rng rng(seed * 6271 + 5);
  VM1OptOptions o;
  int bw = 10 + static_cast<int>(rng.uniform(10));
  int lx = 2 + static_cast<int>(rng.uniform(3));
  int ly = static_cast<int>(rng.uniform(2));
  o.sequence = {ParamSet{bw, 2, lx, ly}};
  o.theta = 0;  // run until the zero-change exit (or max_inner_iters)
  o.max_inner_iters = 3;
  o.threads = 1;
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
  long remote_replies = 0;
  long remote_local_fallbacks = 0;
  long windows = 0;
};

RunResult run(std::uint64_t seed, DistBackend backend, int workers) {
  Design d = random_design(seed);
  VM1OptOptions o = equiv_opts(seed);
  o.backend = backend;
  o.dist_workers = workers;
  VM1OptStats s = vm1opt(d, o);
  EXPECT_EQ(s.solved + s.fallback_rounding + s.fallback_greedy +
                s.rejected_audit + s.kept + s.faulted + s.skipped,
            s.windows)
      << "outcome buckets must sum to windows (seed " << seed << ")";
  RunResult r;
  r.placements = d.placements();
  r.objective = s.final.value;
  r.hpwl = s.final.hpwl;
  r.alignments = s.final.alignments;
  r.legal = is_legal(d);
  r.remote_replies = s.remote.replies;
  r.remote_local_fallbacks = s.remote.local_fallbacks;
  r.windows = s.windows;
  return r;
}

void expect_identical(const RunResult& proc, const RunResult& thr,
                      std::uint64_t seed) {
  ASSERT_EQ(proc.placements.size(), thr.placements.size());
  for (std::size_t i = 0; i < proc.placements.size(); ++i) {
    ASSERT_EQ(proc.placements[i], thr.placements[i])
        << "seed " << seed << " instance " << i;
  }
  // Bitwise comparisons on purpose: the processes backend must walk the
  // identical arithmetic path, not merely land within a tolerance.
  EXPECT_EQ(proc.objective, thr.objective) << "seed " << seed;
  EXPECT_EQ(proc.hpwl, thr.hpwl) << "seed " << seed;
  EXPECT_EQ(proc.alignments, thr.alignments) << "seed " << seed;
  EXPECT_EQ(proc.legal, thr.legal) << "seed " << seed;
  EXPECT_TRUE(proc.legal) << "seed " << seed;
}

TEST(DistBackendEquiv, ProcessesMatchThreadsAcrossSeeds) {
  long total_remote = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RunResult proc = run(seed, DistBackend::kProcesses, /*workers=*/2);
    RunResult thr = run(seed, DistBackend::kThreads, /*workers=*/0);
    expect_identical(proc, thr, seed);
    total_remote += proc.remote_replies;
    // Without injected faults every window must solve remotely; a silent
    // local fallback would make this suite vacuous.
    EXPECT_EQ(proc.remote_local_fallbacks, 0) << "seed " << seed;
  }
  EXPECT_GT(total_remote, 0) << "no window was ever solved by a worker";
}

TEST(DistBackendEquiv, WorkerCountDoesNotChangeResults) {
  for (std::uint64_t seed = 201; seed <= 200 + kVariantSeeds; ++seed) {
    RunResult one = run(seed, DistBackend::kProcesses, /*workers=*/1);
    RunResult four = run(seed, DistBackend::kProcesses, /*workers=*/4);
    expect_identical(one, four, seed);
  }
}

}  // namespace
}  // namespace vm1
