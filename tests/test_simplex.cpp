#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "lp/factor.h"
#include "lp/revised.h"
#include "obs/metrics.h"
#include "support/dense_oracle.h"
#include "util/rng.h"

namespace vm1::lp {
namespace {

Result solve(const Problem& p) {
  SimplexSolver s;
  return s.solve(p);
}

TEST(Simplex, EmptyProblem) {
  Problem p;
  Result r = solve(p);
  EXPECT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.objective, 0);
}

TEST(Simplex, UnconstrainedBoxMinimum) {
  Problem p;
  p.add_variable(-2, 5, 3.0, "x");   // cost 3 -> sits at lower bound
  p.add_variable(-4, 7, -2.0, "y");  // cost -2 -> sits at upper bound
  Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], -2, 1e-7);
  EXPECT_NEAR(r.x[1], 7, 1e-7);
  EXPECT_NEAR(r.objective, 3 * -2 + -2 * 7, 1e-7);
}

TEST(Simplex, ClassicTwoVariable) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig's example)
  // => min -3x - 5y; optimum x=2, y=6, z=-36.
  Problem p;
  int x = p.add_variable(0, kInf, -3, "x");
  int y = p.add_variable(0, kInf, -5, "y");
  p.add_constraint({{x, 1}}, Sense::kLe, 4);
  p.add_constraint({{y, 2}}, Sense::kLe, 12);
  p.add_constraint({{x, 3}, {y, 2}}, Sense::kLe, 18);
  Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -36, 1e-6);
  EXPECT_NEAR(r.x[0], 2, 1e-6);
  EXPECT_NEAR(r.x[1], 6, 1e-6);
}

TEST(Simplex, GreaterEqualAndEquality) {
  // min x + 2y s.t. x + y >= 3, x - y == 1, 0 <= x,y <= 10.
  // From x = y + 1: x + y >= 3 -> y >= 1; objective 3y + 1 -> y = 1, x = 2.
  Problem p;
  int x = p.add_variable(0, 10, 1, "x");
  int y = p.add_variable(0, 10, 2, "y");
  p.add_constraint({{x, 1}, {y, 1}}, Sense::kGe, 3);
  p.add_constraint({{x, 1}, {y, -1}}, Sense::kEq, 1);
  Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[0], 2, 1e-6);
  EXPECT_NEAR(r.x[1], 1, 1e-6);
  EXPECT_NEAR(r.objective, 4, 1e-6);
}

TEST(Simplex, InfeasibleDetected) {
  Problem p;
  int x = p.add_variable(0, 1, 1, "x");
  p.add_constraint({{x, 1}}, Sense::kGe, 2);  // x >= 2 but x <= 1
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

TEST(Simplex, InfeasibleEqualityPair) {
  Problem p;
  int x = p.add_variable(0, 10, 0, "x");
  int y = p.add_variable(0, 10, 0, "y");
  p.add_constraint({{x, 1}, {y, 1}}, Sense::kEq, 4);
  p.add_constraint({{x, 1}, {y, 1}}, Sense::kEq, 5);
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  Problem p;
  int x = p.add_variable(0, kInf, -1, "x");  // minimize -x, x unbounded
  p.add_variable(0, 1, 0, "y");
  p.add_constraint({{x, -1}}, Sense::kLe, 0);  // -x <= 0, no upper limit
  EXPECT_EQ(solve(p).status, Status::kUnbounded);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y s.t. x + y >= -3, bounds [-5, 5].
  Problem p;
  int x = p.add_variable(-5, 5, 1, "x");
  int y = p.add_variable(-5, 5, 1, "y");
  p.add_constraint({{x, 1}, {y, 1}}, Sense::kGe, -3);
  Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -3, 1e-6);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple redundant constraints through one vertex.
  Problem p;
  int x = p.add_variable(0, kInf, -1, "x");
  int y = p.add_variable(0, kInf, -1, "y");
  p.add_constraint({{x, 1}, {y, 1}}, Sense::kLe, 2);
  p.add_constraint({{x, 2}, {y, 2}}, Sense::kLe, 4);
  p.add_constraint({{x, 1}}, Sense::kLe, 2);
  p.add_constraint({{y, 1}}, Sense::kLe, 2);
  Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.objective, -2, 1e-6);
}

TEST(Simplex, EqualityWithBoundedVarsBigM) {
  // Alignment-style big-M rows as emitted by the window MILP builder.
  Problem p;
  int d = p.add_variable(0, 1, -10, "d");
  int xa = p.add_variable(0, 30, 0.1, "xa");
  int xb = p.add_variable(5, 20, 0.1, "xb");
  double G = 40;
  p.add_constraint({{xa, 1}, {xb, -1}, {d, G}}, Sense::kLe, G);
  p.add_constraint({{xb, 1}, {xa, -1}, {d, G}}, Sense::kLe, G);
  Result r = solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  // d=1 requires xa == xb; cheapest alignment at xa=xb=5.
  EXPECT_NEAR(r.x[0], 1, 1e-6);
  EXPECT_NEAR(r.x[1], r.x[2], 1e-6);
}

TEST(Simplex, ObjectiveValueAndViolationHelpers) {
  Problem p;
  int x = p.add_variable(0, 4, 2, "x");
  p.add_constraint({{x, 1}}, Sense::kLe, 3);
  EXPECT_DOUBLE_EQ(p.objective_value({2.0}), 4.0);
  EXPECT_DOUBLE_EQ(p.max_violation({2.0}), 0.0);
  EXPECT_DOUBLE_EQ(p.max_violation({3.5}), 0.5);
  EXPECT_DOUBLE_EQ(p.max_violation({-1.0}), 1.0);  // bound violation
}

TEST(Simplex, TimeLimitTruncates) {
  // A generous problem with an absurdly small time budget must return
  // kIterLimit rather than wrong answers.
  Rng rng(3);
  Problem p;
  const int n = 40;
  for (int j = 0; j < n; ++j) {
    p.add_variable(0, 10, static_cast<double>(rng.uniform_int(-5, 5)));
  }
  for (int i = 0; i < 60; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.chance(0.5)) {
        terms.emplace_back(j, static_cast<double>(rng.uniform_int(1, 4)));
      }
    }
    if (!terms.empty()) {
      p.add_constraint(terms, Sense::kLe,
                       static_cast<double>(rng.uniform_int(10, 60)));
    }
  }
  SimplexSolver::Options opts;
  opts.time_limit_sec = 1e-9;
  Result r = SimplexSolver(opts).solve(p);
  EXPECT_EQ(r.status, Status::kIterLimit);
}

class SimplexRandom : public ::testing::TestWithParam<int> {};

// Property: on randomly generated feasible LPs, the solver returns optimal,
// the solution is feasible, and its objective is no worse than the known
// interior feasible point used to construct the instance.
TEST_P(SimplexRandom, FeasibleInstancesSolveToFeasibleOptimum) {
  Rng rng(1000 + GetParam());
  const int n = 2 + static_cast<int>(rng.uniform(6));
  const int m = 1 + static_cast<int>(rng.uniform(6));

  Problem p;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    double lo = rng.uniform_int(-5, 0);
    double hi = lo + 1 + rng.uniform(10);
    double cost = rng.uniform_int(-5, 5);
    p.add_variable(lo, hi, cost);
    x0[j] = lo + (hi - lo) * rng.uniform_real();
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    double lhs = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.chance(0.3)) continue;
      double a = rng.uniform_int(-4, 4);
      if (a == 0) continue;
      terms.emplace_back(j, a);
      lhs += a * x0[j];
    }
    if (terms.empty()) continue;
    // Slack keeps x0 strictly feasible for <= / >=.
    if (rng.chance(0.5)) {
      p.add_constraint(terms, Sense::kLe, lhs + rng.uniform_real() * 3);
    } else {
      p.add_constraint(terms, Sense::kGe, lhs - rng.uniform_real() * 3);
    }
  }

  Result r = SimplexSolver().solve(p);
  ASSERT_EQ(r.status, Status::kOptimal) << "instance " << GetParam();
  EXPECT_LT(p.max_violation(r.x), 1e-5);
  EXPECT_LE(r.objective, p.objective_value(x0) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomLp, SimplexRandom, ::testing::Range(0, 40));

// ---- warm start ----

/// Random feasible LP with a known interior point (same scheme as
/// SimplexRandom above).
Problem random_feasible_lp(Rng& rng) {
  const int n = 3 + static_cast<int>(rng.uniform(6));
  const int m = 2 + static_cast<int>(rng.uniform(6));
  Problem p;
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    double lo = rng.uniform_int(-5, 0);
    double hi = lo + 1 + rng.uniform(10);
    p.add_variable(lo, hi, rng.uniform_int(-5, 5));
    x0[j] = lo + (hi - lo) * rng.uniform_real();
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    double lhs = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.chance(0.3)) continue;
      double a = rng.uniform_int(-4, 4);
      if (a == 0) continue;
      terms.emplace_back(j, a);
      lhs += a * x0[j];
    }
    if (terms.empty()) continue;
    if (rng.chance(0.5)) {
      p.add_constraint(terms, Sense::kLe, lhs + rng.uniform_real() * 3);
    } else {
      p.add_constraint(terms, Sense::kGe, lhs - rng.uniform_real() * 3);
    }
  }
  return p;
}

TEST(SimplexWarm, BasisExportedOnOptimal) {
  Problem p;
  int x = p.add_variable(0, kInf, -3, "x");
  int y = p.add_variable(0, kInf, -5, "y");
  p.add_constraint({{x, 1}}, Sense::kLe, 4);
  p.add_constraint({{y, 2}}, Sense::kLe, 12);
  p.add_constraint({{x, 3}, {y, 2}}, Sense::kLe, 18);
  Result r = SimplexSolver().solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(r.reduced_cost.size(), 2u);  // structural prefix only
  // Reduced costs of an optimal basis (branch-and-bound's reduced-cost
  // fixing relies on them): zero strictly between the bounds (x = 2 and
  // y = 6 here), >= 0 for a variable resting at its lower bound.
  for (int v = 0; v < 2; ++v) {
    if (r.x[v] <= p.lower_bound(v) + 1e-9) {
      EXPECT_GE(r.reduced_cost[v], -1e-7);
    } else {
      EXPECT_NEAR(r.reduced_cost[v], 0.0, 1e-7);
    }
  }
}

class SimplexIncremental : public ::testing::TestWithParam<int> {};

// Property: a persistent IncrementalSimplex driven through a random walk of
// bound changes (the branch-and-bound dive pattern) agrees with a fresh
// cold solve after every step.
TEST_P(SimplexIncremental, MatchesFreshSolveUnderBoundWalk) {
  Rng rng(5000 + GetParam());
  Problem p = random_feasible_lp(rng);
  IncrementalSimplex inc(p, {});
  Problem q = p;  // mirror of inc's internal problem

  Result r0 = inc.solve();
  Result f0 = SimplexSolver().solve(q);
  ASSERT_EQ(r0.status, f0.status);

  // Remember original bounds so the walk can both tighten and restore.
  std::vector<std::pair<double, double>> orig;
  for (int v = 0; v < p.num_variables(); ++v) {
    orig.emplace_back(p.lower_bound(v), p.upper_bound(v));
  }
  for (int step = 0; step < 12; ++step) {
    int v = static_cast<int>(rng.uniform(p.num_variables()));
    auto [olo, ohi] = orig[v];
    double lo = olo, hi = ohi;
    if (rng.chance(0.7)) {
      // Tighten to a random subinterval (upper bounds stay finite here).
      double span = std::isfinite(ohi) ? ohi - olo : 10.0;
      double a = olo + span * rng.uniform_real();
      double b = olo + span * rng.uniform_real();
      lo = std::min(a, b);
      hi = std::max(a, b);
    }  // else: restore the original bounds
    inc.set_bounds(v, lo, hi);
    q.set_bounds(v, lo, hi);

    Result ri = inc.solve();
    Result rf = SimplexSolver().solve(q);
    ASSERT_EQ(ri.status, rf.status)
        << "instance " << GetParam() << " step " << step;
    if (rf.status == Status::kOptimal) {
      EXPECT_NEAR(ri.objective, rf.objective, 1e-6)
          << "instance " << GetParam() << " step " << step;
      EXPECT_LT(q.max_violation(ri.x), 1e-5);
    }
  }
  EXPECT_GT(inc.warm_solves() + inc.cold_solves(), 0);
}

INSTANTIATE_TEST_SUITE_P(RandomLp, SimplexIncremental,
                         ::testing::Range(0, 40));

// ---- revised-vs-dense differential fuzz ----
//
// The revised engine must agree with the dense-tableau oracle
// (tests/support/dense_oracle.h: full tableau, Dantzig pricing, no
// factorization) on status everywhere and on the objective wherever
// optimality is proved. Instance modes cover the stress shapes of the
// branch-and-bound workload: degenerate vertices (stall / Bland paths),
// bound-flip-heavy boxes, equality-heavy and infeasible systems, unbounded
// rays, and plain random feasible LPs. Sanitizer binaries define
// VM1_EQUIV_LIGHT to shrink the instance count.

#ifdef VM1_EQUIV_LIGHT
constexpr int kFuzzPerShard = 60;
constexpr int kFuzzAuxInstances = 40;
#else
constexpr int kFuzzPerShard = 1000;  // x10 shards: 10k instances
constexpr int kFuzzAuxInstances = 200;
#endif
constexpr int kFuzzShards = 10;

Problem random_fuzz_lp(Rng& rng) {
  const int mode = static_cast<int>(rng.uniform(5));
  if (mode == 0) return random_feasible_lp(rng);
  Problem p;
  const int n = 2 + static_cast<int>(rng.uniform(7));
  switch (mode) {
    case 1: {  // degenerate: scaled copies of one hyperplane + a Ge pin
      for (int j = 0; j < n; ++j) {
        p.add_variable(0, kInf, rng.uniform_int(-3, 3));
      }
      std::vector<std::pair<int, double>> base;
      for (int j = 0; j < n; ++j) {
        if (rng.chance(0.6)) {
          base.emplace_back(j, static_cast<double>(rng.uniform_int(1, 3)));
        }
      }
      if (base.empty()) base.emplace_back(0, 1.0);
      const int m = 2 + static_cast<int>(rng.uniform(6));
      for (int i = 0; i < m; ++i) {
        std::vector<std::pair<int, double>> row = base;
        double scale = 1 + rng.uniform(3);
        for (auto& [v, a] : row) a *= scale;
        if (rng.chance(0.4) && row.size() > 1) row.pop_back();
        p.add_constraint(row, Sense::kLe, 4 * scale);
      }
      p.add_constraint(base, Sense::kGe, 0);
      break;
    }
    case 2: {  // bound-flip-heavy: tight boxes, rarely-binding rows
      for (int j = 0; j < n; ++j) {
        double lo = rng.uniform_int(-2, 0);
        p.add_variable(lo, lo + 1 + rng.uniform(2), rng.uniform_int(-5, 5));
      }
      for (int i = 0; i < 2; ++i) {
        std::vector<std::pair<int, double>> row;
        for (int j = 0; j < n; ++j) {
          row.emplace_back(j, static_cast<double>(rng.uniform_int(1, 2)));
        }
        p.add_constraint(row, Sense::kLe, 3.0 * n);
      }
      break;
    }
    case 3: {  // equality-heavy, often infeasible
      for (int j = 0; j < n; ++j) {
        p.add_variable(0, 1 + rng.uniform(5), rng.uniform_int(-4, 4));
      }
      const int m = 2 + static_cast<int>(rng.uniform(4));
      for (int i = 0; i < m; ++i) {
        std::vector<std::pair<int, double>> row;
        for (int j = 0; j < n; ++j) {
          if (rng.chance(0.5)) {
            row.emplace_back(j, static_cast<double>(rng.uniform_int(-3, 3)));
          }
        }
        if (row.empty()) continue;
        p.add_constraint(row, Sense::kEq,
                         static_cast<double>(rng.uniform_int(-4, 8)));
      }
      break;
    }
    default: {  // mixed senses, negative bounds, occasional unbounded rays
      for (int j = 0; j < n; ++j) {
        double lo = rng.uniform_int(-6, 0);
        double hi = rng.chance(0.8) ? lo + 1 + rng.uniform(8) : kInf;
        p.add_variable(lo, hi, rng.uniform_int(-5, 5));
      }
      const int m = 1 + static_cast<int>(rng.uniform(6));
      for (int i = 0; i < m; ++i) {
        std::vector<std::pair<int, double>> row;
        for (int j = 0; j < n; ++j) {
          if (rng.chance(0.4)) {
            row.emplace_back(j, static_cast<double>(rng.uniform_int(-4, 4)));
          }
        }
        if (row.empty()) continue;
        Sense s = rng.chance(0.5)   ? Sense::kLe
                  : rng.chance(0.5) ? Sense::kGe
                                    : Sense::kEq;
        p.add_constraint(row, s, static_cast<double>(rng.uniform_int(-6, 10)));
      }
      break;
    }
  }
  return p;
}

class SimplexDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDifferential, RevisedMatchesDenseOracle) {
  SimplexSolver revised;
  for (int i = 0; i < kFuzzPerShard; ++i) {
    Rng rng(900000 + static_cast<std::uint64_t>(GetParam()) * kFuzzPerShard +
            static_cast<std::uint64_t>(i));
    Problem p = random_fuzz_lp(rng);
    Result rd = oracle::dense_solve(p);
    Result rr = revised.solve(p);
    ASSERT_EQ(rr.status, rd.status)
        << "shard " << GetParam() << " instance " << i;
    if (rd.status == Status::kOptimal) {
      EXPECT_NEAR(rr.objective, rd.objective, 1e-6)
          << "shard " << GetParam() << " instance " << i;
      EXPECT_LT(p.max_violation(rr.x), 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SimplexDifferential,
                         ::testing::Range(0, kFuzzShards));

// Warm re-solves after branching-style bound changes must agree with a
// fresh oracle solve of the changed problem, and must actually run warm
// (dual simplex from the hot basis) — a warm path that silently
// cold-restarts would pass the agreement checks alone.
TEST(SimplexDifferentialWarm, WarmReoptimizeMatchesDenseOracle) {
  int resolves = 0;
  int warm = 0;
  for (int i = 0; i < kFuzzAuxInstances; ++i) {
    Rng rng(770000 + i);
    Problem p = random_feasible_lp(rng);
    IncrementalSimplex inc(p, {});
    Result root = inc.solve();
    ASSERT_EQ(root.status, oracle::dense_solve(p).status) << "instance " << i;
    if (root.status != Status::kOptimal) continue;

    Problem q = p;
    int changes = 1 + static_cast<int>(rng.uniform(3));
    for (int k = 0; k < changes; ++k) {
      int v = static_cast<int>(rng.uniform(p.num_variables()));
      double lo = q.lower_bound(v);
      double hi = q.upper_bound(v);
      double xv = root.x[v];
      if (rng.chance(0.5) && xv - 0.5 >= lo) {
        hi = std::min(hi, xv - 0.5);
      } else if (xv + 0.5 <= hi) {
        lo = std::max(lo, xv + 0.5);
      }
      if (lo > hi) continue;
      q.set_bounds(v, lo, hi);
      inc.set_bounds(v, lo, hi);
    }

    Result fresh = oracle::dense_solve(q);
    Result w = inc.solve();
    ++resolves;
    warm += static_cast<int>(w.warm_start_used);
    ASSERT_EQ(w.status, fresh.status) << "instance " << i;
    if (fresh.status == Status::kOptimal) {
      EXPECT_NEAR(w.objective, fresh.objective, 1e-6) << "instance " << i;
      EXPECT_LT(q.max_violation(w.x), 1e-5);
    }
  }
  ASSERT_GT(resolves, 0);
  EXPECT_GT(2 * warm, resolves) << warm << " of " << resolves << " warm";
}

/// Window-MILP-shaped LP relaxation: `cells` assignment rows (each cell
/// picks one of `cands` candidates) plus 2 * cells random exclusivity rows
/// over one candidate per cell, each capped at `excl_rhs`.
Problem window_assignment_lp(int cells, int cands, double excl_rhs,
                             std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  std::vector<std::vector<int>> vars(cells);
  for (int c = 0; c < cells; ++c) {
    for (int k = 0; k < cands; ++k) {
      vars[c].push_back(
          p.add_variable(0, 1, static_cast<double>(rng.uniform(100))));
    }
  }
  for (int c = 0; c < cells; ++c) {
    std::vector<std::pair<int, double>> row;
    for (int v : vars[c]) row.emplace_back(v, 1.0);
    p.add_constraint(row, Sense::kEq, 1);
  }
  for (int r = 0; r < cells * 2; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int c = 0; c < cells; ++c) {
      row.emplace_back(vars[c][rng.uniform(cands)], 1.0);
    }
    p.add_constraint(row, Sense::kLe, excl_rhs);
  }
  return p;
}

// A basis of more than 256 rows, the size of the largest windows the flow
// builds: the cold solve and warm re-solves after branching-style fixes
// must agree with the oracle, and every re-solve must run warm. The
// exclusivity cap (cells / 5) makes rows bind, so every solve pivots.
TEST(SimplexDifferentialWarm, LargeWindowLpMatchesDenseOracle) {
#ifdef VM1_EQUIV_LIGHT
  constexpr int kFixes = 2;
#else
  constexpr int kFixes = 5;
#endif
  Problem p = window_assignment_lp(100, 6, 20, 42);
  ASSERT_EQ(p.num_constraints(), 300);
  IncrementalSimplex inc(p, {});
  Result r = inc.solve();
  Result fresh = oracle::dense_solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  ASSERT_EQ(fresh.status, Status::kOptimal);
  EXPECT_FALSE(r.warm_start_used);
  EXPECT_NEAR(r.objective, fresh.objective, 1e-6);
  EXPECT_LT(p.max_violation(r.x), 1e-5);

  Problem q = p;
  Rng rng(4343);
  int dual_pivots = 0;
  for (int fix = 0; fix < kFixes; ++fix) {
    // Forbid a candidate the current optimum uses: its cell must move.
    int v = -1;
    while (v < 0) {
      const int j = static_cast<int>(rng.uniform(q.num_variables()));
      if (r.x[j] > 1e-6) v = j;
    }
    q.set_bounds(v, 0, 0);
    inc.set_bounds(v, 0, 0);
    r = inc.solve();
    fresh = oracle::dense_solve(q);
    ASSERT_EQ(r.status, fresh.status) << "fix " << fix;
    ASSERT_EQ(r.status, Status::kOptimal) << "fix " << fix;
    EXPECT_TRUE(r.warm_start_used) << "fix " << fix;
    EXPECT_NEAR(r.objective, fresh.objective, 1e-6) << "fix " << fix;
    EXPECT_LT(q.max_violation(r.x), 1e-5) << "fix " << fix;
    dual_pivots += r.dual_iterations;
  }
  EXPECT_GT(dual_pivots, kFixes);
}

// ---- refactor policy ----

TEST(SimplexRefactor, IntervalTriggersScheduledRefactorizations) {
  obs::Counter& refactors = obs::counter("lp.refactorizations");

  // Default policy: the diagonal cold-start basis is loaded, not
  // refactorized, and this solve is far shorter than the interval — the
  // counter must not move at all.
  {
    Rng rng(42);
    Problem p = random_feasible_lp(rng);
    long before = refactors.value();
    Result r = SimplexSolver().solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_EQ(refactors.value() - before, 0);
  }

  // A warm bound walk keeps one basis hot, so its pivots add up as updates
  // to one inverse. Nothing refactorizes before they reach the interval,
  // and something does once the walk's dual pivots alone have reached it.
  Problem p = window_assignment_lp(30, 8, 8, 7);
  IncrementalSimplex inc(p, {});
  const long before = refactors.value();
  const Result root = inc.solve();
  ASSERT_EQ(root.status, Status::kOptimal);
  // The root's primal pivots update the inverse too: at most
  // root.iterations of them, since bound flips do not.
  Result r = root;
  Rng rng(77);
  int warm_updates = 0;
  int fixed = -1;
  for (int step = 0; warm_updates < detail::kRefactorInterval; ++step) {
    ASSERT_LT(step, 20000) << "the walk stopped pivoting";
    if (fixed >= 0) {
      inc.set_bounds(fixed, 0, 1);
      fixed = -1;
    } else {
      // Forbid a candidate the current optimum uses.
      while (fixed < 0) {
        const int j = static_cast<int>(rng.uniform(p.num_variables()));
        if (r.x[j] > 1e-6) fixed = j;
      }
      inc.set_bounds(fixed, 0, 0);
    }
    r = inc.solve();
    ASSERT_EQ(r.status, Status::kOptimal) << "step " << step;
    ASSERT_TRUE(r.warm_start_used) << "step " << step;
    warm_updates += r.dual_iterations;
    if (root.iterations + warm_updates < detail::kRefactorInterval) {
      ASSERT_EQ(refactors.value() - before, 0)
          << "refactorized after at most " << root.iterations + warm_updates
          << " updates, step " << step;
    }
  }
  EXPECT_GE(refactors.value() - before, 1);
}

// A long bound walk on one hot basis applies thousands of product-form
// updates to the inverse between refactorizations; correctness rests on the
// warm-entry recompute of beta and zrow and on the per-pivot consistency
// (drift) check. Every step must agree with a fresh solve.
TEST(SimplexRefactor, LongEtaChainStaysConsistentUnderBoundWalk) {
  Rng rng(4242);
  Problem p = random_feasible_lp(rng);
  IncrementalSimplex inc(p, {});
  Problem q = p;
  ASSERT_EQ(inc.solve().status, oracle::dense_solve(q).status);

  std::vector<std::pair<double, double>> orig;
  for (int v = 0; v < p.num_variables(); ++v) {
    orig.emplace_back(p.lower_bound(v), p.upper_bound(v));
  }
  for (int step = 0; step < 40; ++step) {
    int v = static_cast<int>(rng.uniform(p.num_variables()));
    auto [olo, ohi] = orig[v];
    double lo = olo, hi = ohi;
    if (rng.chance(0.7)) {
      double span = std::isfinite(ohi) ? ohi - olo : 10.0;
      double a = olo + span * rng.uniform_real();
      double b = olo + span * rng.uniform_real();
      lo = std::min(a, b);
      hi = std::max(a, b);
    }
    inc.set_bounds(v, lo, hi);
    q.set_bounds(v, lo, hi);
    Result ri = inc.solve();
    Result rf = oracle::dense_solve(q);
    ASSERT_EQ(ri.status, rf.status) << "step " << step;
    if (rf.status == Status::kOptimal) {
      EXPECT_NEAR(ri.objective, rf.objective, 1e-6) << "step " << step;
    }
  }
}

// ---- size cap ----

// An LP past kMaxRows would need more than 128 MiB of inverse per solve:
// both entry points refuse it before allocating and count the refusal.
TEST(SimplexLimits, TooLargeLpIsRefused) {
  obs::Counter& too_large = obs::counter("lp.too_large");
  Problem p;
  for (int i = 0; i <= kMaxRows; ++i) {
    const int v = p.add_variable(0, 1, -1.0);
    p.add_constraint({{v, 1.0}}, Sense::kLe, 1);
  }
  ASSERT_EQ(p.num_constraints(), kMaxRows + 1);
  const long before = too_large.value();
  Result cold = SimplexSolver().solve(p);
  EXPECT_EQ(cold.status, Status::kIterLimit);
  EXPECT_EQ(cold.iterations, 0);
  EXPECT_EQ(too_large.value() - before, 1);

  IncrementalSimplex inc(p, {});
  EXPECT_EQ(inc.solve().status, Status::kIterLimit);
  EXPECT_EQ(inc.solve().status, Status::kIterLimit);
  EXPECT_EQ(too_large.value() - before, 3);

  // A small LP is not counted.
  Rng rng(5);
  EXPECT_EQ(SimplexSolver().solve(random_feasible_lp(rng)).status,
            Status::kOptimal);
  EXPECT_EQ(too_large.value() - before, 3);
}

// ---- EtaFactor unit ----

TEST(EtaFactorTest, FactorizeCollapseAndUpdateAgree) {
  // B columns: b0 = (2,0,1), b1 = (1,1,0), b2 = (0,0,3).
  detail::BasisColumns cols;
  cols.clear();
  cols.push(0, 2.0);
  cols.push(2, 1.0);
  cols.close_column();
  cols.push(0, 1.0);
  cols.push(1, 1.0);
  cols.close_column();
  cols.push(2, 3.0);
  cols.close_column();
  const double b[3][3] = {{2, 0, 1}, {1, 1, 0}, {0, 0, 3}};  // b[k] = col k

  detail::EtaFactor f;
  ASSERT_TRUE(f.factorize(cols, 1e-9));
  EXPECT_TRUE(f.factorized());
  EXPECT_EQ(f.updates(), 0);
  for (int k = 0; k < 3; ++k) {
    double x[3] = {b[k][0], b[k][1], b[k][2]};
    f.ftran(x);
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(x[i], i == f.slot_row()[k] ? 1.0 : 0.0, 1e-12)
          << "col " << k << " row " << i;
    }
    // BTRAN: (B^-T e_s) . (B e_k) = [s == slot_row(k)].
    double y[3] = {0, 0, 0};
    y[f.slot_row()[k]] = 1.0;
    f.btran(y);
    for (int j = 0; j < 3; ++j) {
      double dot = 0;
      for (int i = 0; i < 3; ++i) dot += y[i] * b[j][i];
      EXPECT_NEAR(dot, j == k ? 1.0 : 0.0, 1e-12) << "col " << k;
    }
  }

  // Product-form update: replace the basis column at pivot row r with
  // c = (1,2,1), handing append() row r of the inverse as the engine does;
  // afterwards FTRAN(c) must be exactly e_r.
  double alpha[3] = {1, 2, 1};
  f.ftran(alpha);
  const int r = f.slot_row()[2];
  double rho[3] = {0, 0, 0};
  rho[r] = 1.0;
  f.btran(rho);
  ASSERT_TRUE(f.append(r, alpha, rho, 1e-9));
  EXPECT_EQ(f.updates(), 1);
  double x[3] = {1, 2, 1};
  f.ftran(x);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(x[i], i == r ? 1.0 : 0.0, 1e-12);
  }
  // A pivot element below pivot_tol is refused, and nothing is applied.
  double tiny[3] = {0, 0, 0};
  EXPECT_FALSE(f.append(r, tiny, rho, 1e-9));
  EXPECT_EQ(f.updates(), 1);
  double again[3] = {1, 2, 1};
  f.ftran(again);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(again[i], x[i]);
}

// The dual steepest-edge weights must equal ||e_i^T B^-1||^2, recomputed
// here row by row through btran().
void expect_weights_are_row_norms(const detail::EtaFactor& f, int m,
                                  const std::string& when) {
  ASSERT_EQ(static_cast<int>(f.weights().size()), m) << when;
  for (int i = 0; i < m; ++i) {
    std::vector<double> row(m, 0.0);
    row[i] = 1.0;
    f.btran(row.data());
    double norm2 = 0;
    for (double v : row) norm2 += v * v;
    EXPECT_NEAR(f.weights()[i], norm2, 1e-9 * norm2) << when << ", row " << i;
  }
}

// factorize() and reset_diagonal() set the weights exactly; append() carries
// them by the Forrest-Goldfarb recurrence through sparse and dense pivot
// rows alike.
TEST(EtaFactorTest, SteepestEdgeWeightsAreInverseRowNorms) {
  constexpr int m = 7;
  Rng rng(2024);
  // Diagonally dominant basis with a few off-diagonal entries, so the first
  // pivot rows are sparse and factorize() has a Markowitz order to find.
  detail::BasisColumns cols;
  cols.clear();
  for (int k = 0; k < m; ++k) {
    for (int i = 0; i < m; ++i) {
      if (i == (k + 3) % m) {
        cols.push(i, 4.0 + rng.uniform_real());
      } else if (rng.chance(0.25)) {
        cols.push(i, rng.uniform_real() - 0.5);
      }
    }
    cols.close_column();
  }
  detail::EtaFactor f;
  ASSERT_TRUE(f.factorize(cols, 1e-9));
  expect_weights_are_row_norms(f, m, "after factorize");

  // Replace basis columns one pivot at a time: two-entry entering columns,
  // then a dense one, leaving at the row of the largest |alpha| as a
  // well-conditioned pivot.
  int dense_rhos = 0;
  for (int step = 0; step < 10; ++step) {
    std::vector<double> alpha(m, 0.0);
    if (step == 6) {
      for (double& a : alpha) a = 2.0 * rng.uniform_real() - 1.0;
    } else {
      alpha[rng.uniform(m)] = 1.0 + rng.uniform_real();
      alpha[rng.uniform(m)] -= 0.5;
    }
    f.ftran(alpha.data());
    int r = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(alpha[i]) > std::abs(alpha[r])) r = i;
    }
    std::vector<double> rho(m, 0.0);
    rho[r] = 1.0;
    f.btran(rho.data());
    int nnz = 0;
    for (double v : rho) nnz += v != 0.0;
    if (nnz == m) ++dense_rhos;
    ASSERT_TRUE(f.append(r, alpha.data(), rho.data(), 1e-9));
    expect_weights_are_row_norms(f, m,
                                 "after append " + std::to_string(step));
  }
  EXPECT_GE(dense_rhos, 1) << "no append saw a dense pivot row";

  const double diag[3] = {2.0, -0.5, 4.0};
  f.reset_diagonal(diag, 3);
  expect_weights_are_row_norms(f, 3, "after reset_diagonal");
  EXPECT_DOUBLE_EQ(f.weights()[1], 4.0);
}

TEST(EtaFactorTest, SingularBasisRejected) {
  detail::BasisColumns cols;
  cols.clear();
  cols.push(0, 1.0);
  cols.push(1, 2.0);
  cols.close_column();
  cols.push(0, 2.0);
  cols.push(1, 4.0);  // linearly dependent on column 0
  cols.close_column();
  detail::EtaFactor f;
  EXPECT_FALSE(f.factorize(cols, 1e-9));
}

// The diagonal load gives the same inverse a factorization of the same
// diagonal basis does.
TEST(EtaFactorTest, DiagonalResetMatchesBothRepresentations) {
  const double diag[3] = {1.0, -1.0, 1.0};
  detail::EtaFactor loaded;
  loaded.reset_diagonal(diag, 3);
  detail::BasisColumns cols;
  cols.clear();
  for (int i = 0; i < 3; ++i) {
    cols.push(i, diag[i]);
    cols.close_column();
  }
  detail::EtaFactor factored;
  ASSERT_TRUE(factored.factorize(cols, 1e-9));
  for (detail::EtaFactor* f : {&loaded, &factored}) {
    EXPECT_TRUE(f->factorized());
    EXPECT_EQ(f->updates(), 0);
    EXPECT_EQ(f->slot_row(), (std::vector<int>{0, 1, 2}));
    double x[3] = {3.0, 5.0, -2.0};
    f->ftran(x);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], -5.0, 1e-12);
    EXPECT_NEAR(x[2], -2.0, 1e-12);
    double y[3] = {1.0, 1.0, 1.0};
    f->btran(y);
    EXPECT_NEAR(y[1], -1.0, 1e-12);
  }
}

}  // namespace
}  // namespace vm1::lp
