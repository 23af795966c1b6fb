#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/vm1opt.h"
#include "design/legality.h"
#include "place/global_placer.h"
#include "place/legalizer.h"

namespace vm1 {
namespace {

/// Restores the process-wide fault config on scope exit so tests cannot
/// leak injected failures into each other.
struct FaultGuard {
  fault::Config saved = fault::config();
  ~FaultGuard() { fault::set_config(saved); }
};

fault::Config all_sites(double rate, std::uint64_t seed = 7) {
  fault::Config cfg;
  for (double& r : cfg.rate) r = rate;
  cfg.seed = seed;
  return cfg;
}

fault::Config one_site(fault::Site s, double rate, std::uint64_t seed = 7) {
  fault::Config cfg;
  cfg.rate[static_cast<int>(s)] = rate;
  cfg.seed = seed;
  return cfg;
}

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

// --- Config / spec parsing --------------------------------------------------

TEST(FaultConfig, ParseSpecRateAndSeed) {
  fault::Config cfg = fault::parse_spec("rate=0.25,seed=99");
  for (double r : cfg.rate) EXPECT_DOUBLE_EQ(r, 0.25);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultConfig, ParseSpecPerSiteOverride) {
  fault::Config cfg =
      fault::parse_spec("no_solution=0.5,apply_throw=0.125");
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kNoSolution)], 0.5);
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kApplyThrow)],
                   0.125);
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kBuildThrow)], 0.0);
}

TEST(FaultConfig, ParseSpecKnowsDistTransportSites) {
  // The four transport drills of the distributed backend (src/dist) parse
  // like any solver site and land on their own Site slots.
  fault::Config cfg = fault::parse_spec(
      "worker_kill=0.25,reply_drop=0.5,reply_corrupt=0.125,"
      "connect_timeout=0.0625");
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kWorkerKill)],
                   0.25);
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kReplyDrop)], 0.5);
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kReplyCorrupt)],
                   0.125);
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kConnectTimeout)],
                   0.0625);
  EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(fault::Site::kBuildThrow)], 0.0);
  EXPECT_TRUE(cfg.enabled());
  EXPECT_STREQ(fault::to_string(fault::Site::kWorkerKill), "worker_kill");
  EXPECT_STREQ(fault::to_string(fault::Site::kConnectTimeout),
               "connect_timeout");
}

TEST(FaultConfig, ParseSpecRejectsMalformedInput) {
  EXPECT_THROW(fault::parse_spec("bogus_site=0.5"), std::invalid_argument);
  EXPECT_THROW(fault::parse_spec("rate=1.5"), std::invalid_argument);
  EXPECT_THROW(fault::parse_spec("rate=-0.1"), std::invalid_argument);
  EXPECT_THROW(fault::parse_spec("rate"), std::invalid_argument);
  EXPECT_THROW(fault::parse_spec("rate=abc"), std::invalid_argument);
  EXPECT_THROW(fault::parse_spec("seed=xyz"), std::invalid_argument);
}

TEST(FaultConfig, EmptySpecDisabled) {
  fault::Config cfg = fault::parse_spec("");
  EXPECT_FALSE(cfg.enabled());
}

TEST(FaultInjection, ShouldFireIsDeterministicAndSeedKeyed) {
  FaultGuard guard;
  fault::set_config(all_sites(0.5, 123));
  for (std::uint64_t key = 0; key < 64; ++key) {
    bool first = fault::should_fire(fault::Site::kNoSolution, key);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(fault::should_fire(fault::Site::kNoSolution, key), first);
    }
  }
  // A different seed must produce a different schedule on some key.
  std::vector<bool> a, b;
  fault::set_config(all_sites(0.5, 123));
  for (std::uint64_t key = 0; key < 64; ++key) {
    a.push_back(fault::should_fire(fault::Site::kApplyThrow, key));
  }
  fault::set_config(all_sites(0.5, 456));
  for (std::uint64_t key = 0; key < 64; ++key) {
    b.push_back(fault::should_fire(fault::Site::kApplyThrow, key));
  }
  EXPECT_NE(a, b);
}

TEST(FaultInjection, RateZeroNeverFiresRateOneAlwaysFires) {
  FaultGuard guard;
  fault::set_config(all_sites(0.0));
  for (std::uint64_t key = 0; key < 32; ++key) {
    EXPECT_FALSE(fault::should_fire(fault::Site::kBuildThrow, key));
  }
  fault::set_config(all_sites(1.0));
  for (std::uint64_t key = 0; key < 32; ++key) {
    EXPECT_TRUE(fault::should_fire(fault::Site::kBuildThrow, key));
  }
}

TEST(FaultInjection, EmpiricalRateTracksConfiguredRate) {
  FaultGuard guard;
  fault::set_config(all_sites(0.3, 2026));
  int fired = 0;
  const int n = 4000;
  for (std::uint64_t key = 0; key < n; ++key) {
    fired += fault::should_fire(fault::Site::kLpTimeout, key) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fired) / n, 0.3, 0.05);
}

// --- DistOpt degradation paths ----------------------------------------------

TEST(FaultedDistOpt, NoSolutionFaultDegradesToFallbacks) {
  FaultGuard guard;
  fault::set_config(one_site(fault::Site::kNoSolution, 1.0));
  Design d = placed();
  DistOptOptions opts = fast_opts();
  double before = evaluate_objective(d, opts.params).value;
  DistOptStats s = dist_opt(d, opts, nullptr);
  EXPECT_GT(s.windows, 0);
  EXPECT_EQ(s.outcome_total(), s.windows);
  EXPECT_EQ(s.solved, 0);  // every MILP answer was discarded
  EXPECT_GT(s.fallback_rounding + s.fallback_greedy + s.kept, 0);
  EXPECT_GT(s.faults_injected, 0);
  EXPECT_LE(s.objective.value, before + 1e-6);
  EXPECT_TRUE(is_legal(d));
}

TEST(FaultedDistOpt, NanObjectiveFaultNeverCorrupts) {
  FaultGuard guard;
  fault::set_config(one_site(fault::Site::kNanObjective, 1.0));
  Design d = placed();
  DistOptOptions opts = fast_opts();
  double before = evaluate_objective(d, opts.params).value;
  DistOptStats s = dist_opt(d, opts, nullptr);
  EXPECT_EQ(s.outcome_total(), s.windows);
  EXPECT_EQ(s.solved, 0);
  EXPECT_LE(s.objective.value, before + 1e-6);
  EXPECT_TRUE(is_legal(d));
}

TEST(FaultedDistOpt, BuildThrowFaultClassifiedAndHarmless) {
  FaultGuard guard;
  fault::set_config(one_site(fault::Site::kBuildThrow, 1.0));
  Design d = placed();
  std::vector<Placement> snap = d.placements();
  DistOptStats s = dist_opt(d, fast_opts(), nullptr);
  EXPECT_GT(s.windows, 0);
  EXPECT_EQ(s.faulted, s.windows);  // every window threw in build
  EXPECT_EQ(s.outcome_total(), s.windows);
  // Nothing was ever applied: the layout is bit-identical.
  EXPECT_EQ(d.placements(), snap);
}

TEST(FaultedDistOpt, ApplyThrowRollsBackAndContinues) {
  FaultGuard guard;
  fault::set_config(one_site(fault::Site::kApplyThrow, 1.0));
  Design d = placed();
  std::vector<Placement> snap = d.placements();
  DistOptStats s = dist_opt(d, fast_opts(), nullptr);
  EXPECT_GT(s.windows, 0);
  EXPECT_EQ(s.outcome_total(), s.windows);
  EXPECT_GT(s.faulted, 0);
  // Every applied window threw mid-apply and was rolled back; windows with
  // no applicable solution were kept. Either way the layout is unchanged
  // and still legal.
  EXPECT_EQ(s.faulted + s.kept, s.windows);
  EXPECT_EQ(d.placements(), snap);
  EXPECT_TRUE(is_legal(d));
}

TEST(FaultedDistOpt, LpTimeoutFaultDegradesGracefully) {
  FaultGuard guard;
  fault::set_config(one_site(fault::Site::kLpTimeout, 1.0));
  Design d = placed();
  DistOptOptions opts = fast_opts();
  double before = evaluate_objective(d, opts.params).value;
  DistOptStats s = dist_opt(d, opts, nullptr);
  EXPECT_EQ(s.outcome_total(), s.windows);
  EXPECT_LE(s.objective.value, before + 1e-6);
  EXPECT_TRUE(is_legal(d));
}

TEST(FaultedDistOpt, GreedyFallbackReachedWhenRoundingDisabled) {
  FaultGuard guard;
  fault::set_config(one_site(fault::Site::kNoSolution, 1.0));
  Design d = placed();
  DistOptOptions opts = fast_opts();
  opts.rounding_fallback = false;
  opts.params.alpha = 60;  // make greedy moves worth taking
  double before = evaluate_objective(d, opts.params).value;
  DistOptStats s = dist_opt(d, opts, nullptr);
  EXPECT_EQ(s.outcome_total(), s.windows);
  EXPECT_EQ(s.fallback_rounding, 0);
  EXPECT_GT(s.fallback_greedy, 0);
  EXPECT_LE(s.objective.value, before + 1e-6);
  EXPECT_TRUE(is_legal(d));
}

TEST(FaultedDistOpt, CascadeFullyDisabledKeepsEveryWindow) {
  FaultGuard guard;
  fault::set_config(one_site(fault::Site::kNoSolution, 1.0));
  Design d = placed();
  std::vector<Placement> snap = d.placements();
  DistOptOptions opts = fast_opts();
  opts.rounding_fallback = false;
  opts.greedy_fallback = false;
  DistOptStats s = dist_opt(d, opts, nullptr);
  EXPECT_EQ(s.kept, s.windows);
  EXPECT_EQ(d.placements(), snap);
}

TEST(FaultedDistOpt, FaultScheduleIsThreadInvariant) {
  FaultGuard guard;
  fault::set_config(all_sites(0.4, 99));
  DistOptOptions opts = fast_opts();
  Design d_seq = placed();
  Design d_par = placed();
  DistOptStats ss = dist_opt(d_seq, opts, nullptr);
  ThreadPool pool(4);
  DistOptStats sp = dist_opt(d_par, opts, &pool);
  // Faults key off the window, not the worker: identical schedules,
  // identical outcome histograms, identical layouts.
  EXPECT_EQ(ss.faults_injected, sp.faults_injected);
  EXPECT_EQ(ss.solved, sp.solved);
  EXPECT_EQ(ss.fallback_rounding, sp.fallback_rounding);
  EXPECT_EQ(ss.fallback_greedy, sp.fallback_greedy);
  EXPECT_EQ(ss.faulted, sp.faulted);
  EXPECT_EQ(ss.kept, sp.kept);
  for (int i = 0; i < d_seq.netlist().num_instances(); ++i) {
    EXPECT_EQ(d_seq.placement(i), d_par.placement(i)) << "instance " << i;
  }
}

// --- Full-run acceptance: the ISSUE 2 drill ---------------------------------

TEST(FaultedVM1Opt, ThirtyPercentFaultsFullRunDegradesGracefully) {
  FaultGuard guard;
  fault::set_config(all_sites(0.35, 2026));
  Design d = placed();
  VM1OptOptions opts;
  opts.sequence = {ParamSet{16, 2, 3, 1}};
  opts.max_inner_iters = 2;
  opts.threads = 2;
  opts.mip.max_nodes = 60;
  opts.mip.time_limit_sec = 2.0;
  VM1OptStats stats = vm1opt(d, opts);
  // Every window accounted for in exactly one outcome bucket.
  EXPECT_GT(stats.windows, 0);
  EXPECT_EQ(stats.solved + stats.fallback_rounding + stats.fallback_greedy +
                stats.rejected_audit + stats.kept + stats.faulted,
            static_cast<long>(stats.windows));
  // The drill actually injected a substantial number of faults...
  EXPECT_GT(stats.faults_injected, 0);
  EXPECT_GT(stats.faulted + stats.fallback_rounding + stats.fallback_greedy +
                stats.kept,
            0);
  // ...and the pass degraded, never corrupted: objective monotone, layout
  // legal.
  EXPECT_LE(stats.final.value, stats.initial.value + 1e-6);
  EXPECT_TRUE(is_legal(d));
}

TEST(FaultedVM1Opt, OpenM1ArchSurvivesFaultsToo) {
  FaultGuard guard;
  fault::set_config(all_sites(0.35, 11));
  Design d = placed(CellArch::kOpenM1);
  VM1OptOptions opts;
  opts.sequence = {ParamSet{16, 2, 3, 1}};
  opts.max_inner_iters = 1;
  opts.threads = 2;
  opts.mip.max_nodes = 60;
  opts.mip.time_limit_sec = 2.0;
  opts.params.alpha = 30;
  VM1OptStats stats = vm1opt(d, opts);
  EXPECT_LE(stats.final.value, stats.initial.value + 1e-6);
  EXPECT_TRUE(is_legal(d));
}

}  // namespace
}  // namespace vm1
