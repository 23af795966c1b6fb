/// \file simplex.h
/// Bounded-variable simplex LP solver (primal two-phase + dual).
///
/// This is the LP engine underneath the branch-and-bound MILP solver
/// (src/milp) that OpenVM1 uses in place of the paper's CPLEX 12.6.3. There
/// is one engine: a revised simplex over an explicit dense basis inverse —
/// built from a Markowitz-ordered sparse Gauss-Jordan factorization and
/// updated by one rank-1 product-form update per pivot — with Devex
/// pricing and shared CSC/CSR constraint columns (see revised.h and
/// DESIGN.md "LP/MILP solver internals"). A pivot costs O(m^2) dense column
/// passes instead of rewriting a whole tableau, which is what makes a warm
/// basis nearly free. The inverse takes 8 m^2 bytes per solve, so LPs with
/// more than kMaxRows rows are refused. An independent dense-tableau solver
/// lives under tests/support as the differential-test oracle; it is not
/// part of the library.
///
/// Two solve paths:
///  * cold: two-phase primal from the slack basis (SimplexSolver::solve);
///  * warm: dual simplex re-optimization of a hot basis after bound changes
///    (IncrementalSimplex), which is how branch-and-bound dives without
///    re-running phase 1 per node.
///
/// Conventions:
///  * minimization;
///  * every variable has a finite lower bound; upper bounds may be
///    +infinity (vm1::lp::kInf);
///  * constraints are `sum a_j x_j  (<= | >= | ==)  rhs`.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lp/sparse.h"

namespace vm1::lp {

namespace detail {
class RevisedCore;
}  // namespace detail

/// Infinity marker for variable upper bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest number of constraints a solve accepts. The engine keeps the basis
/// inverse explicitly, 8 m^2 bytes per solve (128 MiB at this size), so a
/// larger LP returns Status::kIterLimit before anything is allocated and
/// counts in the lp.too_large metric.
inline constexpr int kMaxRows = 4096;

enum class Sense { kLe, kGe, kEq };

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
};

const char* to_string(Status s);

/// One linear constraint: terms (var index, coefficient), sense, rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  Sense sense = Sense::kLe;
  double rhs = 0;
};

/// An LP in natural (row) form. Build with add_variable/add_constraint,
/// then hand to SimplexSolver::solve.
class Problem {
 public:
  /// Adds a variable with bounds [lo, hi] and objective coefficient `cost`.
  /// Requires lo finite and lo <= hi. Returns the variable index.
  int add_variable(double lo, double hi, double cost, std::string name = "");

  /// Adds a constraint. Term variable indices must be valid. Duplicate
  /// indices within one constraint are allowed (coefficients accumulate).
  void add_constraint(std::vector<std::pair<int, double>> terms, Sense sense,
                      double rhs);

  int num_variables() const { return static_cast<int>(lo_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  double lower_bound(int v) const { return lo_[v]; }
  double upper_bound(int v) const { return hi_[v]; }
  double cost(int v) const { return cost_[v]; }
  const std::string& name(int v) const { return names_[v]; }
  const Constraint& constraint(int i) const { return rows_[i]; }

  /// Overwrites a variable's bounds (used by branch-and-bound to fix
  /// binaries). Requires lo <= hi.
  void set_bounds(int v, double lo, double hi);

  /// Evaluates the objective at x.
  double objective_value(const std::vector<double>& x) const;

  /// Returns the largest violation of any constraint or bound at x
  /// (0 when feasible).
  double max_violation(const std::vector<double>& x) const;

  /// Shared sparse (CSC + CSR) view of the constraint matrix, built lazily
  /// on first use and cached for the lifetime of this Problem's structure
  /// (add_variable/add_constraint invalidate it; set_bounds does not).
  /// Copies share the cache. The first call is not thread-safe with respect
  /// to concurrent solves of the same Problem object.
  const detail::ColumnMatrix& columns() const;

 private:
  std::vector<double> lo_, hi_, cost_;
  std::vector<std::string> names_;
  std::vector<Constraint> rows_;
  mutable std::shared_ptr<const detail::ColumnMatrix> cols_cache_;
};

struct Result {
  Status status = Status::kInfeasible;
  double objective = 0;
  std::vector<double> x;  ///< variable values (size = num_variables)
  int iterations = 0;       ///< total simplex pivots (primal + dual)
  int dual_iterations = 0;  ///< pivots spent in the dual simplex
  /// True when the solve re-optimized from a warm basis without phase 1.
  bool warm_start_used = false;
  /// Reduced costs of the structural variables at the optimum (empty when
  /// not optimal). Nonnegative for variables at lower bound, nonpositive
  /// at upper bound — used for reduced-cost fixing in branch-and-bound.
  std::vector<double> reduced_cost;
};

/// Two-phase simplex with bounded variables.
class SimplexSolver {
 public:
  /// Every field travels with a window job (put_mip) and enters its
  /// signature (window_signature).
  struct Options {
    int max_iterations = 200000;
    /// Wall-clock budget; <= 0 means unlimited. Exceeding it returns
    /// kIterLimit (callers treat it as truncation).
    double time_limit_sec = 0;
    double tol = 1e-7;        ///< feasibility / optimality tolerance
    double pivot_tol = 1e-9;  ///< minimum |pivot| accepted
  };

  SimplexSolver() : opts_() {}
  explicit SimplexSolver(const Options& opts) : opts_(opts) {}

  /// Cold solve: two-phase primal from the slack basis. kIterLimit, with
  /// nothing allocated, for an LP of more than kMaxRows rows.
  Result solve(const Problem& p) const;

 private:
  Options opts_;
};

/// Re-optimizing solver that owns a mutable copy of one Problem and keeps
/// the basis factorization hot across a sequence of bound changes. This is
/// the branch-and-bound workhorse: a child node differs from its parent by
/// one integer-variable bound, so `set_bounds` + `solve` costs a handful of
/// dual pivots instead of a full phase-1 + phase-2 rebuild.
///
/// Basis reuse contract: bound changes never touch reduced costs, so a
/// basis that was optimal (or proved a node infeasible) stays dual feasible
/// and the dual simplex only has to repair primal feasibility. A solve falls
/// back to a cold two-phase start when a variable resting at its upper
/// bound lost that bound, when the dual simplex stalls or hits a singular
/// basis, or when its answer still violates the problem after
/// refactorizing; the failed warm attempt's pivots count in
/// Result::iterations. All per-solve scratch lives in a reusable
/// SolveWorkspace inside the core, so repeated solves do not touch the
/// allocator.
class IncrementalSimplex {
 public:
  IncrementalSimplex(const Problem& p, const SimplexSolver::Options& opts);
  ~IncrementalSimplex();

  IncrementalSimplex(const IncrementalSimplex&) = delete;
  IncrementalSimplex& operator=(const IncrementalSimplex&) = delete;

  /// The owned problem at its current bounds.
  const Problem& problem() const { return prob_; }

  /// Overwrites variable v's bounds (original, unshifted space). When the
  /// basis is hot this is O(1) bookkeeping that preserves it (the basic
  /// values are recomputed at the next solve); otherwise it only records
  /// the new bounds.
  void set_bounds(int v, double lo, double hi);

  /// Re-optimizes at the current bounds: dual simplex from the previous
  /// optimal basis when the basis is hot, full two-phase primal
  /// otherwise. A dual stall or a drifted solution triggers an automatic
  /// cold restart, so results match a fresh solve. Like SimplexSolver,
  /// returns kIterLimit for an LP of more than kMaxRows rows.
  Result solve();

  /// Discards the hot basis; the next solve is a cold start.
  void invalidate();

  // Observability counters (accumulated across solve() calls).
  int warm_solves() const { return warm_solves_; }    ///< phase-1 solves avoided
  int cold_solves() const { return cold_solves_; }    ///< full rebuilds
  int dual_pivots() const { return dual_pivots_; }

 private:
  Problem prob_;
  std::unique_ptr<detail::RevisedCore> core_;
  bool hot_ = false;
  int warm_solves_ = 0;
  int cold_solves_ = 0;
  int dual_pivots_ = 0;
};

}  // namespace vm1::lp
