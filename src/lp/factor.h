/// \file factor.h
/// Basis factorization for the revised simplex engine: an explicit dense
/// inverse.
///
/// The engine keeps B^-1 itself, column-major m x m. A refactorization runs
/// Markowitz-ordered, threshold-pivoted sparse Gauss-Jordan elimination on
/// the basis columns, which yields m elementary transforms ("etas")
/// B^-1 = G_m ... G_1, each applying
///   t = x[r] / pivot;  x[i] -= v_i * t (i != r);  x[r] = t,
/// and then folds them into the inverse one identity column at a time. Each
/// simplex pivot applies its product-form update (the eta of the FTRANed
/// entering column, the rank-1 special case of Forrest-Tomlin) eagerly as a
/// rank-1 outer product over contiguous columns, and FTRAN/BTRAN are dense
/// column passes. No eta chain accumulates, so a pivot costs O(m^2) however
/// many pivots separate refactorizations, and the owner refactorizes only
/// for numerical hygiene or when a consistency check fails. The inverse
/// takes 8 m^2 bytes, which lp::kMaxRows bounds.
///
/// The pivot update, FTRAN and the dense BTRAN run as kernels
/// (lp/kernels.h). The update and FTRAN take four nonzero columns per pass
/// over the rows, the BTRAN four interleaved dot products. Each is compiled
/// portably and, on x86-64, for AVX2; the process picks the AVX2 set once if
/// the CPU has it. Both sets give the bits of one-column loops: they
/// vectorize only across independent elements, add every sum in the
/// one-column order and never fuse a multiply-add.
///
/// The factor also owns the dual steepest-edge weights w_i = ||e_i^T B^-1||^2,
/// the squared row norms of the inverse that the dual simplex prices its
/// leaving row by. factorize() and reset_diagonal() set them exactly; each
/// append() updates them by Forrest and Goldfarb's recurrence ("Steepest-edge
/// simplex algorithms for linear programming", Math. Programming, 1992),
/// whose one extra FTRAN, tau = B^-1 rho, it sums in the same pass over the
/// inverse's columns that applies the rank-1 update.
#pragma once

#include <utility>
#include <vector>

namespace vm1::lp::detail {

/// Basis columns handed to factorize(), in basis-slot order: column k
/// occupies [ptr[k], ptr[k+1]) of idx/val. Reused scratch — the caller
/// assembles it per refactorization without reallocating.
struct BasisColumns {
  std::vector<int> ptr;
  std::vector<int> idx;
  std::vector<double> val;

  void clear() {
    ptr.clear();
    ptr.push_back(0);
    idx.clear();
    val.clear();
  }
  void push(int row, double v) {
    idx.push_back(row);
    val.push_back(v);
  }
  void close_column() { ptr.push_back(static_cast<int>(idx.size())); }
  int cols() const { return static_cast<int>(ptr.size()) - 1; }
};

class EtaFactor {
 public:
  /// Factorizes the m basis columns in `cols` (Markowitz ordering with
  /// threshold partial pivoting) and builds B^-1 from the factor etas.
  /// Returns false on a numerically singular basis. On success slot_row()[k]
  /// is the pivot row assigned to basis slot k — a permutation of [0, m);
  /// the caller relabels its basis so that slot k == row slot_row()[k],
  /// after which ftran() of a column yields tableau entries indexed directly
  /// by row.
  bool factorize(const BasisColumns& cols, double pivot_tol);

  /// Loads a diagonal basis B = diag(d) directly — the slack/artificial
  /// starting basis of a cold solve. No elimination: this is a basis load,
  /// not a refactorization, and is deliberately not counted as one.
  void reset_diagonal(const double* diag, int m);

  const std::vector<int>& slot_row() const { return slot_row_; }

  /// x := B^-1 x (dense vector of length m). Inverse columns whose x entry
  /// is exactly zero are skipped, so sparse right-hand sides stay cheap.
  void ftran(double* x) const;

  /// x := B^-T x (dense vector of length m).
  void btran(double* x) const;

  /// Applies the product-form update for a pivot at `row` whose FTRANed
  /// entering column is `alpha` (dense, length m). `rho` is row `row` of
  /// the current inverse, e_row^T B^-1, which the owner has just computed
  /// by btran() to gather the pivot row. Updates the weights with it.
  /// Returns false when the pivot element is numerically unusable (caller
  /// refactorizes); nothing is applied then.
  bool append(int row, const double* alpha, const double* rho,
              double pivot_tol);

  /// Dual steepest-edge weights, w[i] = ||e_i^T B^-1||^2 (length m).
  const std::vector<double>& weights() const { return w_; }

  /// Updates appended since the last factorize()/reset_diagonal().
  int updates() const { return updates_; }
  bool factorized() const { return factored_; }

 private:
  struct Op {
    int row;
    double inv_pivot;
    int begin;  ///< off-pivot entries in idx_/val_
    int end;
  };

  /// w_ := the squared row norms of inv_, summed column by column.
  void exact_weights();

  std::vector<int> slot_row_;
  int m_ = 0;
  int updates_ = 0;
  bool factored_ = false;

  // inv_ is B^-1 column-major (inv_[c*m_ + i] is row i of column c);
  // w_ its squared row norms; fscratch_ the FTRAN/BTRAN temporary and
  // append()'s tau.
  std::vector<double> inv_;
  std::vector<double> w_;
  mutable std::vector<double> fscratch_;

  // Factorization workspace (reused across refactorizations): the factor
  // etas, the working basis columns and the Markowitz counts.
  std::vector<Op> ops_;
  std::vector<int> idx_;
  std::vector<double> val_;
  std::vector<std::vector<std::pair<int, double>>> wcols_;
  std::vector<double> acc_;
  std::vector<int> stamp_;
  std::vector<int> touched_;
  std::vector<int> row_count_;
  std::vector<char> row_done_, col_done_;
  int gen_ = 0;
};

}  // namespace vm1::lp::detail
