/// \file pricing.h
/// Entering-variable pricing for the revised simplex engine.
///
/// Devex (Forrest-Goldfarb) reference-framework pricing: each nonbasic
/// column carries an approximate steepest-edge weight w_j, and the entering
/// candidate maximizes z_j^2 / w_j instead of Dantzig's |z_j|. Weights are
/// updated from the pivot row (which the engine computes anyway to update
/// reduced costs), so Devex costs nothing extra per iteration yet sharply
/// cuts the pivot count on the degenerate assignment-shaped LPs the window
/// MILPs produce. The framework resets to unit weights when they have grown
/// past the trust threshold. Devex is the only pricing rule; the engine
/// falls back to Bland's rule after a stall (RevisedCore::choose_entering).
#pragma once

#include <vector>

namespace vm1::lp::detail {

class DevexPricing {
 public:
  /// Resets to a fresh reference framework of `ncols` unit weights.
  void reset(int ncols);

  /// Entering column by max z^2/w over eligible nonbasics, or -1 if none.
  /// Eligibility is dir_j * z_j < -tol where dir is +1 at lower bound,
  /// -1 at upper bound, 0 for basic columns.
  int choose(const std::vector<double>& zrow, const std::vector<double>& dir,
             double tol) const;

  /// Devex update after a pivot: `entering` left the nonbasic set through
  /// the pivot row whose nonbasic values are rowvals[support[0..n)] with
  /// pivot element alpha_piv; `leaving` re-enters the nonbasic set.
  /// `is_basic` masks columns (by dir == 0) that must not be touched.
  void update(int entering, int leaving, double alpha_piv,
              const double* rowvals, const int* support, int nsupport,
              const std::vector<double>& dir);

  double weight(int j) const { return w_[j]; }

 private:
  std::vector<double> w_;
};

}  // namespace vm1::lp::detail
