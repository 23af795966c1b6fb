/// \file revised.h
/// Revised simplex core: the one LP engine behind SimplexSolver and
/// IncrementalSimplex.
///
/// Instead of an explicit m x ncols tableau (rewritten in full on every
/// pivot), this engine keeps only:
///  * the shared sparse constraint columns (Problem::columns(), CSC + CSR),
///  * the explicit dense inverse of the current basis (EtaFactor), built by
///    a Markowitz-ordered sparse Gauss-Jordan factorization and updated in
///    place by one rank-1 product-form update per pivot, with its squared
///    row norms, the weights by which the dual simplex picks a leaving row,
///  * the dense m-vector of basic values (beta_) and the ncols-vector of
///    reduced costs (zrow_), both updated incrementally per pivot.
///
/// A pivot therefore costs FTRAN + BTRAN + one rank-1 update (dense O(m^2)
/// column passes) + one sparse row gather, instead of O(m * ncols), and
/// that cost does not grow with the pivots since the last refactorization.
/// A refactorization runs only every kRefactorInterval updates (numerical
/// hygiene) or when a per-pivot consistency check detects drift; verdicts
/// are validated by O(nnz) residual checks against the original matrix
/// instead of by refactorizing, which is what cuts lp.refactorizations by
/// orders of magnitude versus a refactor-to-certify policy. The cold start
/// loads the diagonal slack/artificial basis directly in O(m^2) without
/// counting a refactorization at all.
///
/// Warm re-solves recompute beta (one FTRAN of the bound-adjusted rhs) and
/// the reduced costs (one BTRAN + sparse dot per column) from scratch at
/// entry, so bound changes between solves are free and numeric drift cannot
/// accumulate across a branch-and-bound dive.
#pragma once

#include <vector>

#include "lp/factor.h"
#include "lp/pricing.h"
#include "lp/simplex.h"
#include "util/logging.h"

namespace vm1::lp::detail {

/// Basis updates applied to the inverse before a scheduled refactorization.
/// A pivot's cost does not grow with the update count, so this only bounds
/// round-off; a failed per-pivot consistency check refactorizes at once.
inline constexpr int kRefactorInterval = 4096;

/// Per-solve scratch, allocated once and reused for every solve a
/// RevisedCore performs (IncrementalSimplex keeps one core hot across an
/// entire branch-and-bound dive, so repeated solves never touch the
/// allocator). All vectors are sized by ensure() at solve entry.
struct SolveWorkspace {
  std::vector<double> alpha;    ///< FTRANed entering column (m)
  std::vector<double> rho;      ///< pivot row of B^-1, B^-T e_r (m)
  std::vector<double> rowvals;  ///< gathered pivot tableau row (ncols)
  std::vector<int> support;     ///< nonzero columns of rowvals
  std::vector<int> col_stamp;   ///< rowvals validity stamps (ncols)
  std::vector<double> d;        ///< rhs / residual workspace (m)
  std::vector<double> y;        ///< dual prices workspace (m)
  std::vector<int> relabel;     ///< basis relabeling scratch (m)
  BasisColumns cols;            ///< basis assembly for refactorization
  int stamp_gen = 0;

  void ensure(int m, int ncols);
};

/// The engine proper: one instance per SimplexSolver::solve call, or one
/// long-lived instance inside IncrementalSimplex. The Problem passed to the
/// constructor must outlive the core and must not gain variables or
/// constraints afterwards (bound changes are fine).
class RevisedCore {
 public:
  RevisedCore(const Problem& p, const SimplexSolver::Options& opts);

  /// Cold path: slack/artificial start, phase 1 if needed, primal phase 2.
  Result run_cold(const Problem& p);

  /// Incremental interface: records the new bounds; beta is recomputed from
  /// scratch (one FTRAN) at the next reoptimize_dual, so this is O(1).
  /// Returns false when the basis cannot absorb the change (variable
  /// resting at an upper bound that became infinite).
  bool set_bounds_incremental(int v, double lo, double hi);

  /// Re-optimizes the hot basis with the dual simplex. Returns kOptimal
  /// or kInfeasible (both trustworthy), or kIterLimit when the caller
  /// should cold restart (stall, drifted solution, singular basis).
  Result reoptimize_dual(const Problem& p);

 private:
  enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

  void size_for(int nart);
  void set_state(int j, VarState s);
  /// Scatters normalized column j (structural / slack / artificial) into
  /// dense x of length m (zero-filled first).
  void load_column(int j, double* x) const;
  /// ws_.alpha := B^-1 A_j.
  void ftran_column(int j);
  /// Gathers tableau pivot row r into ws_.rowvals / ws_.support via
  /// rho = B^-T e_r and the CSR rows of its support; rho stays in ws_.rho
  /// for the inverse update of the pivot.
  void gather_pivot_row(int r);
  double rowval(int j) const {
    return ws_.col_stamp[j] == ws_.stamp_gen ? ws_.rowvals[j] : 0.0;
  }

  /// Refactorizes the current basis (assemble columns, factorize and
  /// invert, relabel slots to pivot rows). False on a singular basis.
  bool refactorize();
  /// refactorize() + recompute beta and zrow. False on a singular basis.
  bool refresh();
  /// ws_.d := b' = rhs_norm - A * shift (normalized rhs at current shifts).
  void compute_bprime(double* d) const;
  /// beta := B^-1 (b' - sum_{j at upper} A_j ub_j), row-indexed.
  void recompute_beta();
  /// zrow := c - c_B' B^-1 A under the current cost_ row (exact zeros on
  /// basic columns).
  void recompute_zrow();
  /// O(nnz) check that the current basic solution satisfies A x' = b'
  /// against the *original* matrix — validates infeasible verdicts without
  /// refactorizing.
  bool residual_ok();

  int choose_entering(bool bland) const;
  /// Shared pivot bookkeeping once (r, q) is fixed and ws_.alpha, ws_.rho and
  /// ws_.rowvals are loaded: inverse and dual steepest-edge weight update,
  /// Devex weights (primal only), incremental zrow update, state and basis
  /// flips. beta is updated by the caller (primal and dual move it
  /// differently). Returns false when the pivot element is numerically
  /// unusable.
  bool apply_pivot(int r, int q, int leave_dir, double enter_val,
                   bool use_devex);

  // Runs primal simplex iterations on the current cost row.
  Status iterate(bool phase1);
  Status dual_iterate();
  std::vector<double> recover_x() const;
  void export_optimal(const Problem& p, Result* res) const;

  SimplexSolver::Options opts_;
  const ColumnMatrix* A_;  ///< shared sparse columns (owned by the Problem)
  int n_struct_;
  int m_;
  int ncols_ = 0;
  int n_art_begin_ = 0;

  std::vector<double> beta_;   ///< basic values, indexed by row
  std::vector<double> ub_;     ///< normalized upper bounds (lower = 0)
  std::vector<double> cost_;   ///< current objective (phase 1 or 2)
  std::vector<double> cost2_;  ///< phase-2 objective
  std::vector<double> zrow_;   ///< reduced costs
  std::vector<double> dir_;    ///< +1 at lower, -1 at upper, 0 basic/pinned
  std::vector<int> basis_;     ///< basis_[row] = column index
  std::vector<VarState> state_;
  std::vector<double> shift_;  ///< lower bounds of structural vars
  std::vector<int> art_row_;   ///< row of artificial column n_art_begin_+k
  std::vector<double> art_sign_;  ///< its unit coefficient (+1 / -1)

  EtaFactor factor_;
  DevexPricing devex_;
  SolveWorkspace ws_;
  Timer timer_;  ///< solve wall clock, reset when iterations_ resets
  int iterations_ = 0;
  int dual_iterations_ = 0;
  bool need_phase1_ = false;
};

}  // namespace vm1::lp::detail
