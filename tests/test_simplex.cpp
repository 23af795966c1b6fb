#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "lp/factor.h"
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
// The revised engine — in both basis representations, sparse eta file and
// collapsed explicit inverse — must agree with the dense-tableau oracle
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
  SimplexSolver::Options eta_o;  // eta-file representation forced
  eta_o.dense_inverse_dim = 0;
  SimplexSolver revised;  // default: explicit inverse
  SimplexSolver eta(eta_o);
  for (int i = 0; i < kFuzzPerShard; ++i) {
    Rng rng(900000 + static_cast<std::uint64_t>(GetParam()) * kFuzzPerShard +
            static_cast<std::uint64_t>(i));
    Problem p = random_fuzz_lp(rng);
    Result rd = oracle::dense_solve(p);
    Result rr = revised.solve(p);
    Result re = eta.solve(p);
    ASSERT_EQ(rr.status, rd.status)
        << "shard " << GetParam() << " instance " << i;
    ASSERT_EQ(re.status, rd.status)
        << "shard " << GetParam() << " instance " << i;
    if (rd.status == Status::kOptimal) {
      EXPECT_NEAR(rr.objective, rd.objective, 1e-6)
          << "shard " << GetParam() << " instance " << i;
      EXPECT_NEAR(re.objective, rd.objective, 1e-6)
          << "shard " << GetParam() << " instance " << i;
      EXPECT_LT(p.max_violation(rr.x), 1e-5);
      EXPECT_LT(p.max_violation(re.x), 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SimplexDifferential,
                         ::testing::Range(0, kFuzzShards));

// Warm re-solves after branching-style bound changes must agree with a
// fresh oracle solve of the changed problem, in both basis representations,
// and must actually run warm (dual simplex from the hot basis) — a warm
// path that silently cold-restarts would pass the agreement checks alone.
TEST(SimplexDifferentialWarm, WarmReoptimizeMatchesDenseOracle) {
  SimplexSolver::Options eta_o;
  eta_o.dense_inverse_dim = 0;
  int resolves = 0;
  int warm = 0;
  for (int i = 0; i < kFuzzAuxInstances; ++i) {
    Rng rng(770000 + i);
    Problem p = random_feasible_lp(rng);
    IncrementalSimplex inv(p, {});
    IncrementalSimplex eta(p, eta_o);
    Result root = inv.solve();
    ASSERT_EQ(eta.solve().status, root.status) << "instance " << i;
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
      inv.set_bounds(v, lo, hi);
      eta.set_bounds(v, lo, hi);
    }

    Result fresh = oracle::dense_solve(q);
    Result wi = inv.solve();
    Result we = eta.solve();
    resolves += 2;
    warm += static_cast<int>(wi.warm_start_used) +
            static_cast<int>(we.warm_start_used);
    ASSERT_EQ(wi.status, fresh.status) << "instance " << i;
    ASSERT_EQ(we.status, fresh.status) << "instance " << i;
    if (fresh.status == Status::kOptimal) {
      EXPECT_NEAR(wi.objective, fresh.objective, 1e-6) << "instance " << i;
      EXPECT_NEAR(we.objective, fresh.objective, 1e-6) << "instance " << i;
      EXPECT_LT(q.max_violation(wi.x), 1e-5);
      EXPECT_LT(q.max_violation(we.x), 1e-5);
    }
  }
  ASSERT_GT(resolves, 0);
  EXPECT_GT(2 * warm, resolves) << warm << " of " << resolves << " warm";
}

// ---- refactor policy ----

TEST(SimplexRefactor, IntervalTriggersScheduledRefactorizations) {
  obs::Counter& refactors = obs::counter("lp.refactorizations");
  Rng rng(42);
  Problem p = random_feasible_lp(rng);

  // interval 1: every pivot after the first forces a scheduled rebuild, in
  // both basis representations.
  for (int dense_dim : {0, 256}) {
    SimplexSolver::Options o;
    o.refactor_interval = 1;
    o.dense_inverse_dim = dense_dim;
    long before = refactors.value();
    Result r = SimplexSolver(o).solve(p);
    ASSERT_EQ(r.status, Status::kOptimal);
    EXPECT_GE(refactors.value() - before, 1) << "dense_dim " << dense_dim;
  }

  // Default policy: the diagonal cold-start basis is loaded, not
  // refactorized, and this solve is far shorter than the interval — the
  // counter must not move at all.
  long before = refactors.value();
  Result r = SimplexSolver().solve(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_EQ(refactors.value() - before, 0);
}

// With scheduled refactorization effectively disabled, correctness over a
// long bound walk rests on the warm-entry recompute and the per-pivot
// consistency (drift) check — exactly the safety net the eta file relies on.
TEST(SimplexRefactor, LongEtaChainStaysConsistentUnderBoundWalk) {
  SimplexSolver::Options o;
  o.refactor_interval = 1 << 30;
  o.dense_inverse_dim = 0;  // eta-file mode, chain never scheduled away
  Rng rng(4242);
  Problem p = random_feasible_lp(rng);
  IncrementalSimplex inc(p, o);
  Problem q = p;
  ASSERT_EQ(inc.solve().status, SimplexSolver().solve(q).status);

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
    Result rf = SimplexSolver().solve(q);
    ASSERT_EQ(ri.status, rf.status) << "step " << step;
    if (rf.status == Status::kOptimal) {
      EXPECT_NEAR(ri.objective, rf.objective, 1e-6) << "step " << step;
    }
  }
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
  EXPECT_EQ(f.updates(), 0);
  auto check_inverse = [&](const char* what) {
    for (int k = 0; k < 3; ++k) {
      double x[3] = {b[k][0], b[k][1], b[k][2]};
      f.ftran(x);
      for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(x[i], i == f.slot_row()[k] ? 1.0 : 0.0, 1e-12)
            << what << " col " << k << " row " << i;
      }
      // BTRAN: (B^-T e_s) . (B e_k) = [s == slot_row(k)].
      double y[3] = {0, 0, 0};
      y[f.slot_row()[k]] = 1.0;
      f.btran(y);
      for (int j = 0; j < 3; ++j) {
        double dot = 0;
        for (int i = 0; i < 3; ++i) dot += y[i] * b[j][i];
        EXPECT_NEAR(dot, j == k ? 1.0 : 0.0, 1e-12) << what << " col " << k;
      }
    }
  };
  check_inverse("eta");

  f.collapse();  // same inverse, explicit representation
  EXPECT_TRUE(f.dense_inverse());
  EXPECT_EQ(f.updates(), 0);
  check_inverse("collapsed");

  // Product-form update: replace the basis column at pivot row r with
  // c = (1,2,1); afterwards FTRAN(c) must be exactly e_r.
  double alpha[3] = {1, 2, 1};
  f.ftran(alpha);
  const int r = f.slot_row()[2];
  ASSERT_TRUE(f.append(r, alpha, 1e-9));
  EXPECT_EQ(f.updates(), 1);
  double x[3] = {1, 2, 1};
  f.ftran(x);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(x[i], i == r ? 1.0 : 0.0, 1e-12);
  }
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

TEST(EtaFactorTest, DiagonalResetMatchesBothRepresentations) {
  const double diag[3] = {1.0, -1.0, 1.0};
  for (bool dense : {false, true}) {
    detail::EtaFactor f;
    f.reset_diagonal(diag, 3, dense);
    EXPECT_EQ(f.dense_inverse(), dense);
    EXPECT_TRUE(f.factorized());
    EXPECT_EQ(f.updates(), 0);
    double x[3] = {3.0, 5.0, -2.0};
    f.ftran(x);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], -5.0, 1e-12);
    EXPECT_NEAR(x[2], -2.0, 1e-12);
    double y[3] = {1.0, 1.0, 1.0};
    f.btran(y);
    EXPECT_NEAR(y[1], -1.0, 1e-12);
  }
}

}  // namespace
}  // namespace vm1::lp
