#include "core/dist_opt.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/incremental.h"
#include "design/legality.h"
#include "place/global_placer.h"
#include "place/legalizer.h"

namespace vm1 {
namespace {

Design placed(CellArch arch = CellArch::kClosedM1) {
  Design d = make_design("tiny", arch);
  global_place(d);
  legalize(d);
  return d;
}

DistOptOptions fast_opts() {
  DistOptOptions o;
  o.bw = 16;
  o.bh = 2;
  o.lx = 3;
  o.ly = 1;
  o.mip.max_nodes = 60;
  o.mip.time_limit_sec = 2.0;
  return o;
}

TEST(DistOpt, ObjectiveDoesNotIncrease) {
  Design d = placed();
  DistOptOptions opts = fast_opts();
  double before = evaluate_objective(d, opts.params).value;
  DistOptStats stats = dist_opt(d, opts, nullptr);
  EXPECT_LE(stats.objective.value, before + 1e-6);
  EXPECT_GT(stats.windows, 0);
}

TEST(DistOpt, PreservesLegality) {
  Design d = placed();
  dist_opt(d, fast_opts(), nullptr);
  EXPECT_TRUE(is_legal(d));
}

TEST(DistOpt, ParallelMatchesSequential) {
  Design d_seq = placed();
  Design d_par = placed();
  DistOptOptions opts = fast_opts();
  dist_opt(d_seq, opts, nullptr);
  ThreadPool pool(4);
  dist_opt(d_par, opts, &pool);
  // Same windows, same MILPs, same deterministic solver => same layout.
  for (int i = 0; i < d_seq.netlist().num_instances(); ++i) {
    EXPECT_EQ(d_seq.placement(i), d_par.placement(i)) << "instance " << i;
  }
}

TEST(DistOpt, IncreasesAlignmentsWithHighAlpha) {
  Design d = placed();
  DistOptOptions opts = fast_opts();
  opts.params.alpha = 60;  // strongly favour alignment
  long before = evaluate_objective(d, opts.params).alignments;
  dist_opt(d, opts, nullptr);
  long after = evaluate_objective(d, opts.params).alignments;
  EXPECT_GE(after, before);
}

TEST(DistOpt, FlipOnlyPassKeepsPositions) {
  Design d = placed();
  std::vector<std::pair<int, int>> pos;
  for (int i = 0; i < d.netlist().num_instances(); ++i) {
    pos.emplace_back(d.placement(i).x, d.placement(i).row);
  }
  DistOptOptions opts = fast_opts();
  opts.allow_move = false;
  opts.allow_flip = true;
  opts.lx = 0;
  opts.ly = 0;
  dist_opt(d, opts, nullptr);
  for (int i = 0; i < d.netlist().num_instances(); ++i) {
    EXPECT_EQ(d.placement(i).x, pos[i].first);
    EXPECT_EQ(d.placement(i).row, pos[i].second);
  }
  EXPECT_TRUE(is_legal(d));
}

TEST(DistOpt, OpenM1ArchRuns) {
  Design d = placed(CellArch::kOpenM1);
  DistOptOptions opts = fast_opts();
  opts.params.alpha = 30;
  double before = evaluate_objective(d, opts.params).value;
  DistOptStats stats = dist_opt(d, opts, nullptr);
  EXPECT_LE(stats.objective.value, before + 1e-6);
  EXPECT_TRUE(is_legal(d));
}

TEST(DistOpt, StatsAreCoherent) {
  Design d = placed();
  DistOptStats s = dist_opt(d, fast_opts(), nullptr);
  EXPECT_GE(s.windows, s.windows_solved);
  EXPECT_GE(s.windows_solved, s.windows_improved);
  EXPECT_GE(s.total_nodes, 0);
  EXPECT_GT(s.seconds, 0);
  // Warm-start accounting: every node LP is either a basis reuse or a cold
  // restart, iterations include the dual pivots, and each window's root
  // solve is cold.
  EXPECT_EQ(s.warm_solves + s.cold_restarts, s.total_nodes);
  EXPECT_GE(s.total_lp_iters, s.dual_pivots);
  EXPECT_GE(s.cold_restarts, s.windows_solved);
  EXPECT_GE(s.rc_fixed, 0);
}

TEST(DistOpt, ResultIndependentOfThreadCount) {
  DistOptOptions opts = fast_opts();
  Design d1 = placed();
  Design d3 = placed();
  ThreadPool p1(1);
  ThreadPool p3(3);
  DistOptStats s1 = dist_opt(d1, opts, &p1);
  DistOptStats s3 = dist_opt(d3, opts, &p3);
  for (int i = 0; i < d1.netlist().num_instances(); ++i) {
    EXPECT_EQ(d1.placement(i), d3.placement(i)) << "instance " << i;
  }
  EXPECT_EQ(s1.windows, s3.windows);
  EXPECT_EQ(s1.windows_solved, s3.windows_solved);
  EXPECT_EQ(s1.total_nodes, s3.total_nodes);
  EXPECT_EQ(s1.total_lp_iters, s3.total_lp_iters);
  EXPECT_DOUBLE_EQ(s1.objective.value, s3.objective.value);
}

TEST(DistOpt, OptionsValidationRejectsGarbage) {
  Design d = placed();
  DistOptOptions o = fast_opts();
  o.bw = 0;
  EXPECT_THROW(dist_opt(d, o, nullptr), std::invalid_argument);

  o = fast_opts();
  o.bh = -2;
  EXPECT_THROW(dist_opt(d, o, nullptr), std::invalid_argument);

  o = fast_opts();
  o.lx = -1;
  EXPECT_THROW(dist_opt(d, o, nullptr), std::invalid_argument);

  o = fast_opts();
  o.mip.max_nodes = -5;  // nested mip options validated too
  EXPECT_THROW(dist_opt(d, o, nullptr), std::invalid_argument);
}

TEST(DistOpt, OutcomeCountersCoherentOnCleanRun) {
  Design d = placed();
  DistOptStats s = dist_opt(d, fast_opts(), nullptr);
  EXPECT_EQ(s.outcome_total(), s.windows);
  // No faults, no cancellation: every window either solves or keeps; the
  // fallback and failure buckets stay empty.
  EXPECT_EQ(s.solved + s.kept, s.windows);
  EXPECT_EQ(s.fallback_rounding, 0);
  EXPECT_EQ(s.fallback_greedy, 0);
  EXPECT_EQ(s.rejected_audit, 0);
  EXPECT_EQ(s.faulted, 0);
  EXPECT_EQ(s.faults_injected, 0);
  EXPECT_GT(s.solved, 0);
}

TEST(DistOptIncremental, ValidationRejectsStateWithoutFlag) {
  Design d = placed();
  IncrementalState state;
  DistOptOptions o = fast_opts();
  o.incremental = false;
  o.inc = &state;
  EXPECT_THROW(dist_opt(d, o, nullptr), std::invalid_argument);
}

TEST(DistOptIncremental, RepeatedPassesConvergeToAllSkipped) {
  Design d_inc = placed();
  Design d_full = placed();
  IncrementalState state;
  DistOptOptions oi = fast_opts();
  oi.inc = &state;
  DistOptOptions of = fast_opts();
  of.incremental = false;

  // Iterate the same pass: placements must track full mode bit-for-bit,
  // and once a pass changes zero cells, every window of the next pass is a
  // clean signature hit — the engine's steady state.
  const int kMaxPasses = 10;
  bool converged = false;
  for (int p = 0; p < kMaxPasses; ++p) {
    DistOptStats si = dist_opt(d_inc, oi, nullptr);
    DistOptStats sf = dist_opt(d_full, of, nullptr);
    ASSERT_EQ(d_inc.placements(), d_full.placements()) << "pass " << p;
    EXPECT_DOUBLE_EQ(si.objective.value, sf.objective.value) << "pass " << p;
    EXPECT_EQ(si.outcome_total(), si.windows) << "pass " << p;
    EXPECT_EQ(sf.outcome_total(), sf.windows) << "pass " << p;
    EXPECT_EQ(sf.skipped, 0) << "full mode must never skip";
    EXPECT_EQ(si.cells_changed, sf.cells_changed) << "pass " << p;
    if (converged) {
      // Previous pass was a fixpoint: everything skips now.
      EXPECT_EQ(si.skipped, si.windows) << "pass " << p;
      EXPECT_GT(si.signature_hits, 0) << "pass " << p;
      EXPECT_EQ(si.cells_changed, 0) << "pass " << p;
      break;
    }
    converged = si.cells_changed == 0;
  }
  EXPECT_TRUE(converged) << "pass never reached a zero-change fixpoint";
  EXPECT_TRUE(is_legal(d_inc));
  EXPECT_GT(state.memo_entries(), 0u);
}

TEST(DistOptIncremental, StateSurvivesGridShift) {
  // Alternating offsets (the vm1opt shift pattern, period 2): entries
  // recorded at one offset must hit when that offset recurs, and must
  // never corrupt results at the other offset.
  Design d_inc = placed();
  Design d_full = placed();
  IncrementalState state;
  long hits = 0;
  int quiet_passes = 0;  // consecutive zero-change passes seen
  for (int p = 0; p < 24 && quiet_passes < 3; ++p) {
    DistOptOptions oi = fast_opts();
    oi.tx = (p % 2) * (oi.bw / 2);
    oi.ty = p % 2;
    oi.inc = &state;
    DistOptOptions of = oi;
    of.incremental = false;
    of.inc = nullptr;
    DistOptStats si = dist_opt(d_inc, oi, nullptr);
    dist_opt(d_full, of, nullptr);
    ASSERT_EQ(d_inc.placements(), d_full.placements()) << "pass " << p;
    hits += si.signature_hits;
    quiet_passes = si.cells_changed == 0 ? quiet_passes + 1 : 0;
  }
  // Once both offsets went a full cycle without changes, their memo
  // entries must have been hit.
  EXPECT_EQ(quiet_passes, 3) << "alternating grids never settled";
  EXPECT_GT(hits, 0) << "recurring grids should produce signature hits";
}

TEST(DistOpt, PreSetCancelTokenKeepsEverything) {
  Design d = placed();
  std::vector<Placement> snap = d.placements();
  std::atomic<bool> cancel{true};
  DistOptOptions o = fast_opts();
  o.cancel = &cancel;
  DistOptStats s = dist_opt(d, o, nullptr);
  EXPECT_EQ(s.kept, s.windows);
  EXPECT_EQ(s.solved, 0);
  EXPECT_EQ(d.placements(), snap);  // nothing applied
}

}  // namespace
}  // namespace vm1
