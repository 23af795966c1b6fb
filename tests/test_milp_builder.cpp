#include "core/milp_builder.h"

#include <gtest/gtest.h>

#include <memory>

#include "cells/library_builder.h"
#include "design/legality.h"
#include "place/global_placer.h"
#include "place/hpwl.h"
#include "place/legalizer.h"
#include "util/rng.h"

namespace vm1 {
namespace {

/// Two INVs in adjacent rows connected ZN -> A, misaligned by `offset`
/// sites, inside a wide-open core.
Design make_pair_design(CellArch arch, int offset) {
  auto lib = std::make_unique<Library>(build_library(arch));
  auto nl = std::make_unique<Netlist>(lib.get());
  int inv = lib->find("INV_X1_SVT");
  const Cell& c = lib->cell(inv);
  int u0 = nl->add_instance("u0", inv);
  int u1 = nl->add_instance("u1", inv);
  int net = nl->add_net("n0");
  nl->connect(net, NetPin{u0, c.pin_index("ZN")});
  nl->connect(net, NetPin{u1, c.pin_index("A")});
  Design d("pair", Tech::make_7nm(), std::move(lib), std::move(nl), 4, 32);
  d.set_placement(u0, Placement{10, 1, false});
  // Aligned would be x = 11 (ZN track 12 == A track x+1).
  d.set_placement(u1, Placement{11 + offset, 2, false});
  return d;
}

/// Writes the placements a MILP solution chooses into the design.
void apply_solution(Design& d, const BuiltMilp& built,
                    const std::vector<double>& x) {
  const std::vector<Placement> chosen = built.chosen_placements(x);
  for (std::size_t m = 0; m < built.cells.size(); ++m) {
    d.set_placement(built.cells[m], chosen[m]);
  }
}

WindowProblem whole_core_problem(const Design& d, int lx, int ly) {
  WindowProblem wp;
  wp.design = &d;
  wp.window.x0 = 0;
  wp.window.x1 = d.sites_per_row();
  wp.window.row0 = 0;
  wp.window.row1 = d.num_rows() - 1;
  for (int i = 0; i < d.netlist().num_instances(); ++i) {
    wp.movable.push_back(i);
  }
  wp.lx = lx;
  wp.ly = ly;
  return wp;
}

TEST(MilpBuilder, WarmStartIsFeasible) {
  Design d = make_pair_design(CellArch::kClosedM1, 2);
  WindowProblem wp = whole_core_problem(d, 3, 1);
  BuiltMilp built = build_window_milp(wp);
  ASSERT_FALSE(built.empty());
  std::vector<double> warm = built.warm_start(d);
  EXPECT_TRUE(built.model.is_feasible(warm, 1e-6));
}

TEST(MilpBuilder, ClosedAlignsPairWhenAlphaHigh) {
  Design d = make_pair_design(CellArch::kClosedM1, 2);
  WindowProblem wp = whole_core_problem(d, 3, 1);
  wp.params.alpha = 50;  // far above the <= 4 DBU HPWL cost of aligning
  BuiltMilp built = build_window_milp(wp);
  ASSERT_EQ(built.pairs.size(), 1u);

  std::vector<double> warm = built.warm_start(d);
  milp::BranchAndBound bnb;
  milp::MipResult r = bnb.solve(built.model, built.make_heuristic(), &warm);
  ASSERT_FALSE(r.x.empty());
  apply_solution(d, built, r.x);
  auto [aligned, ovl] = count_net_alignments(d, 0, wp.params);
  EXPECT_EQ(aligned, 1);
  (void)ovl;
  EXPECT_TRUE(is_legal(d));
}

// A fixed pin on track 12 between the two tracks a flip-only cell can put
// its pin on (11 unflipped, 13 flipped): no integer placement aligns the
// pair, but lambdas of 1/2 average the pin onto track 12, which a big-M row
// x_p - x_q <= G(1 - d) accepts with d = 1. The per-value Eq. (4) rows give
// d <= lambda(12) = 0, so the root LP bound is the integer optimum.
TEST(MilpBuilder, ClosedRootLpCannotAlignAveragedPins) {
  auto lib = std::make_unique<Library>(build_library(CellArch::kClosedM1));
  auto nl = std::make_unique<Netlist>(lib.get());
  const int inv1 = lib->find("INV_X1_SVT");
  const int inv2 = lib->find("INV_X2_SVT");
  const Cell& c1 = lib->cell(inv1);
  const Cell& c2 = lib->cell(inv2);
  const int fixed = nl->add_instance("f", inv1);
  const int mov = nl->add_instance("m", inv2);
  const int left = nl->add_instance("l", inv1);
  const int right = nl->add_instance("r", inv1);
  const int net = nl->add_net("n0");
  nl->connect(net, NetPin{fixed, c1.pin_index("ZN")});
  nl->connect(net, NetPin{mov, c2.pin_index("A")});
  // Far pins on either side fix the net's bounding box, so the flip
  // changes no HPWL, and pair with nothing.
  nl->connect(net, NetPin{left, c1.pin_index("A")});
  nl->connect(net, NetPin{right, c1.pin_index("A")});
  Design d("straddle", Tech::make_7nm(), std::move(lib), std::move(nl), 4,
           32);
  d.set_placement(fixed, Placement{10, 1, false});  // ZN on track 12
  d.set_placement(mov, Placement{10, 2, false});    // A on 11, flipped 13
  d.set_placement(left, Placement{2, 0, false});
  d.set_placement(right, Placement{24, 0, false});

  WindowProblem wp = whole_core_problem(d, 0, 0);
  wp.movable = {mov};
  wp.allow_move = false;
  wp.params.alpha = 50;
  BuiltMilp built = build_window_milp(wp);
  ASSERT_EQ(built.cands[0].size(), 2u);
  ASSERT_EQ(built.pairs.size(), 1u);
  const int d_var = built.pairs[0].d_var;

  lp::Result root = lp::SimplexSolver().solve(built.model.lp());
  ASSERT_EQ(root.status, lp::Status::kOptimal);
  EXPECT_NEAR(root.x[d_var], 0.0, 1e-9);

  std::vector<double> warm = built.warm_start(d);
  milp::BranchAndBound bnb;
  milp::MipResult r = bnb.solve(built.model, built.make_heuristic(), &warm);
  ASSERT_EQ(r.status, milp::MipStatus::kOptimal);
  EXPECT_NEAR(r.x[d_var], 0.0, 1e-9);
  EXPECT_NEAR(root.objective, r.objective, 1e-6);
}

TEST(MilpBuilder, ClosedKeepsPlacementWhenAlphaZero) {
  Design d = make_pair_design(CellArch::kClosedM1, 2);
  Coord hpwl0 = total_hpwl(d);
  WindowProblem wp = whole_core_problem(d, 3, 1);
  wp.params.alpha = 0;
  BuiltMilp built = build_window_milp(wp);
  std::vector<double> warm = built.warm_start(d);
  milp::BranchAndBound bnb;
  milp::MipResult r = bnb.solve(built.model, built.make_heuristic(), &warm);
  ASSERT_FALSE(r.x.empty());
  apply_solution(d, built, r.x);
  // Pure-HPWL optimization can only improve (or preserve) wirelength.
  EXPECT_LE(total_hpwl(d), hpwl0);
}

TEST(MilpBuilder, MilpObjectiveNeverWorseThanWarm) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  global_place(d);
  legalize(d);
  WindowProblem wp;
  wp.design = &d;
  wp.window.x0 = 0;
  wp.window.x1 = std::min(20, d.sites_per_row());
  wp.window.row0 = 0;
  wp.window.row1 = std::min(2, d.num_rows() - 1);
  const Netlist& nl = d.netlist();
  for (int i = 0; i < nl.num_instances(); ++i) {
    const Placement& p = d.placement(i);
    if (wp.window.contains_footprint(p.x, p.row,
                                     nl.cell_of(i).width_sites)) {
      wp.movable.push_back(i);
    }
  }
  if (wp.movable.empty()) GTEST_SKIP() << "no movable cells in window";
  wp.lx = 3;
  wp.ly = 1;
  BuiltMilp built = build_window_milp(wp);
  std::vector<double> warm = built.warm_start(d);
  double warm_obj = built.model.objective_value(warm);
  milp::BranchAndBound::Options opts;
  opts.max_nodes = 200;
  opts.time_limit_sec = 10;
  milp::BranchAndBound bnb(opts);
  milp::MipResult r = bnb.solve(built.model, built.make_heuristic(), &warm);
  ASSERT_FALSE(r.x.empty());
  EXPECT_LE(r.objective, warm_obj + 1e-6);
  EXPECT_TRUE(built.model.is_feasible(r.x, 1e-5));
  apply_solution(d, built, r.x);
  EXPECT_TRUE(is_legal(d));
}

TEST(MilpBuilder, OpenOverlapRewarded) {
  Design d = make_pair_design(CellArch::kOpenM1, 4);
  WindowProblem wp = whole_core_problem(d, 4, 1);
  wp.params.alpha = 50;
  wp.params.epsilon = 2;
  BuiltMilp built = build_window_milp(wp);
  ASSERT_EQ(built.pairs.size(), 1u);
  EXPECT_GE(built.pairs[0].o_var, 0);
  std::vector<double> warm = built.warm_start(d);
  milp::BranchAndBound bnb;
  milp::MipResult r = bnb.solve(built.model, built.make_heuristic(), &warm);
  ASSERT_FALSE(r.x.empty());
  apply_solution(d, built, r.x);
  auto [overlapped, ovl] = count_net_alignments(d, 0, wp.params);
  EXPECT_EQ(overlapped, 1);
  EXPECT_GE(ovl, 0);
}

TEST(MilpBuilder, OpenWarmStartFeasible) {
  Design d = make_pair_design(CellArch::kOpenM1, 3);
  WindowProblem wp = whole_core_problem(d, 3, 1);
  BuiltMilp built = build_window_milp(wp);
  std::vector<double> warm = built.warm_start(d);
  EXPECT_TRUE(built.model.is_feasible(warm, 1e-6))
      << "violation " << built.model.lp().max_violation(warm);
}

TEST(MilpBuilder, PairPrunedWhenUnreachable) {
  // Offset far beyond the perturbation range: no d variable is created.
  Design d = make_pair_design(CellArch::kClosedM1, 15);
  WindowProblem wp = whole_core_problem(d, 2, 0);
  BuiltMilp built = build_window_milp(wp);
  EXPECT_TRUE(built.pairs.empty());
}

TEST(MilpBuilder, GammaClosedLimitsVerticalSpan) {
  // Pins three rows apart with gamma_closed = 1: alignment must not count.
  auto lib = std::make_unique<Library>(build_library(CellArch::kClosedM1));
  auto nl = std::make_unique<Netlist>(lib.get());
  int inv = lib->find("INV_X1_SVT");
  const Cell& c = lib->cell(inv);
  int u0 = nl->add_instance("u0", inv);
  int u1 = nl->add_instance("u1", inv);
  int net = nl->add_net("n0");
  nl->connect(net, NetPin{u0, c.pin_index("ZN")});
  nl->connect(net, NetPin{u1, c.pin_index("A")});
  Design d("far", Tech::make_7nm(), std::move(lib), std::move(nl), 6, 32);
  d.set_placement(u0, Placement{10, 0, false});
  d.set_placement(u1, Placement{11, 4, false});  // aligned but 4 rows away
  VM1Params params;
  auto [count, ovl] = count_net_alignments(d, net, params);
  EXPECT_EQ(count, 0);
  (void)ovl;
}

TEST(MilpBuilder, EvaluateObjectiveComposition) {
  Design d = make_pair_design(CellArch::kClosedM1, 0);  // aligned
  VM1Params params;
  params.alpha = 10;
  params.beta = 1;
  ObjectiveBreakdown obj = evaluate_objective(d, params);
  EXPECT_EQ(obj.alignments, 1);
  EXPECT_DOUBLE_EQ(obj.hpwl, static_cast<double>(total_hpwl(d)));
  EXPECT_DOUBLE_EQ(obj.value, obj.hpwl - 10.0);
}

TEST(MilpBuilder, PerNetBetaWeighting) {
  // Two nets; weighting one heavily must steer the HPWL trade-off.
  Design d = make_pair_design(CellArch::kClosedM1, 0);
  VM1Params params;
  params.alpha = 0;
  params.beta = 1;
  ObjectiveBreakdown base = evaluate_objective(d, params);
  params.net_beta = {5.0};  // net 0 weighted 5x
  ObjectiveBreakdown weighted = evaluate_objective(d, params);
  // Only net 0 exists with pins; weighted value = 5 * its HPWL.
  EXPECT_NEAR(weighted.value, 5.0 * base.value, 1e-9);
  EXPECT_DOUBLE_EQ(params.beta_of(0), 5.0);
  EXPECT_DOUBLE_EQ(params.beta_of(7), 1.0);  // beyond vector: default
}

TEST(MilpBuilder, TimingCriticalityWeights) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  global_place(d);
  legalize(d);
  std::vector<long> lengths(d.netlist().num_nets(), 20);
  auto beta = timing_criticality_weights(d, lengths, 4.0);
  ASSERT_EQ(beta.size(), static_cast<std::size_t>(d.netlist().num_nets()));
  double lo = 1e9, hi = 0;
  for (double b : beta) {
    EXPECT_GE(b, 1.0 - 1e-9);
    EXPECT_LE(b, 4.0 + 1e-9);
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  // The critical net reaches the max weight; early nets stay near 1.
  EXPECT_NEAR(hi, 4.0, 1e-6);
  EXPECT_LT(lo, 1.2);
}

TEST(MilpBuilder, HeuristicProducesFeasible) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  global_place(d);
  legalize(d);
  WindowProblem wp;
  wp.design = &d;
  wp.window.x0 = 0;
  wp.window.x1 = std::min(24, d.sites_per_row());
  wp.window.row0 = 0;
  wp.window.row1 = std::min(3, d.num_rows() - 1);
  const Netlist& nl = d.netlist();
  for (int i = 0; i < nl.num_instances(); ++i) {
    const Placement& p = d.placement(i);
    if (wp.window.contains_footprint(p.x, p.row,
                                     nl.cell_of(i).width_sites)) {
      wp.movable.push_back(i);
    }
  }
  if (wp.movable.empty()) GTEST_SKIP();
  BuiltMilp built = build_window_milp(wp);
  auto heuristic = built.make_heuristic();
  // Feed the warm start as the "LP solution": rounding must reproduce a
  // feasible vector.
  std::vector<double> warm = built.warm_start(d);
  auto rounded = heuristic(built.model, warm);
  ASSERT_TRUE(rounded.has_value());
  EXPECT_TRUE(built.model.is_feasible(*rounded, 1e-5));
}

class WindowProperty : public ::testing::TestWithParam<int> {};

// Property: for random windows of a placed design (both architectures),
// the warm start is feasible, the truncated solve never worsens the window
// objective, and applying the solution keeps the design legal.
TEST_P(WindowProperty, SolveIsSafeAndMonotone) {
  int seed = GetParam();
  CellArch arch = (seed % 2 == 0) ? CellArch::kClosedM1 : CellArch::kOpenM1;
  DesignOptions dopts;
  dopts.seed = 1000 + seed;
  Design d = make_design("tiny", arch, dopts);
  GlobalPlaceOptions gp;
  gp.seed = 17 + seed;
  global_place(d, gp);
  legalize(d);
  ASSERT_TRUE(is_legal(d));

  Rng rng(seed);
  WindowProblem wp;
  wp.design = &d;
  int bw = 10 + static_cast<int>(rng.uniform(14));
  int bh = 2 + static_cast<int>(rng.uniform(2));
  wp.window.x0 = static_cast<int>(rng.uniform(
      std::max(1, d.sites_per_row() - bw)));
  wp.window.x1 = std::min(d.sites_per_row(), wp.window.x0 + bw);
  wp.window.row0 = static_cast<int>(rng.uniform(
      std::max(1, d.num_rows() - bh)));
  wp.window.row1 = std::min(d.num_rows() - 1, wp.window.row0 + bh - 1);
  const Netlist& nl = d.netlist();
  for (int i = 0; i < nl.num_instances(); ++i) {
    const Placement& p = d.placement(i);
    if (wp.window.contains_footprint(p.x, p.row,
                                     nl.cell_of(i).width_sites)) {
      wp.movable.push_back(i);
    }
  }
  if (wp.movable.empty()) GTEST_SKIP() << "empty window";
  wp.lx = 3;
  wp.ly = 1;
  wp.params.alpha = 20 + static_cast<double>(rng.uniform(40));

  BuiltMilp built = build_window_milp(wp);
  std::vector<double> warm = built.warm_start(d);
  ASSERT_TRUE(built.model.is_feasible(warm, 1e-6))
      << to_string(arch) << " violation "
      << built.model.lp().max_violation(warm);

  milp::BranchAndBound::Options mo;
  mo.max_nodes = 25;
  mo.time_limit_sec = 2.0;
  milp::BranchAndBound bnb(mo);
  milp::MipResult r = bnb.solve(built.model, built.make_heuristic(), &warm);
  ASSERT_FALSE(r.x.empty());
  EXPECT_LE(r.objective, built.model.objective_value(warm) + 1e-6);
  EXPECT_TRUE(built.model.is_feasible(r.x, 1e-5));
  apply_solution(d, built, r.x);
  EXPECT_TRUE(is_legal(d)) << to_string(arch) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomWindows, WindowProperty,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace vm1
