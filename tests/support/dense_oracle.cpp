#include "support/dense_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace vm1::lp::oracle {

namespace {

/// Dense tableau state for one cold solve. The problem is normalized to
/// `A x = b, 0 <= x <= u`: variables are shifted by their lower bounds, >=
/// rows negated, one slack per row, and artificials added for rows whose
/// slack-basis start is infeasible.
class DenseTableau {
 public:
  DenseTableau(const Problem& p, const SimplexSolver::Options& opts)
      : opts_(opts), n_struct_(p.num_variables()), m_(p.num_constraints()) {}

  Result run(const Problem& p) {
    build(p);
    Result res;
    if (need_phase1_) {
      cost_.assign(ncols_, 0.0);
      for (int j = n_art_begin_; j < ncols_; ++j) cost_[j] = 1.0;
      Status s = iterate(/*phase1=*/true);
      if (s == Status::kIterLimit) {
        res.status = s;
        res.iterations = iterations_;
        return res;
      }
      double infeas = 0;
      for (int i = 0; i < m_; ++i) {
        if (basis_[i] >= n_art_begin_) infeas += beta_[i];
      }
      for (int j = n_art_begin_; j < ncols_; ++j) {
        if (state_[j] == VarState::kAtUpper) infeas += ub_[j];
      }
      if (s == Status::kInfeasible || infeas > 1e-6) {
        res.status = Status::kInfeasible;
        res.iterations = iterations_;
        return res;
      }
      // Pin artificials to zero so they cannot re-enter.
      for (int j = n_art_begin_; j < ncols_; ++j) {
        ub_[j] = 0.0;
        if (state_[j] == VarState::kAtUpper) state_[j] = VarState::kAtLower;
      }
    }

    cost_ = cost2_;
    Status s = iterate(/*phase1=*/false);
    res.status = s;
    res.iterations = iterations_;
    if (s != Status::kOptimal) return res;
    res.x = recover_x();
    res.objective = p.objective_value(res.x);
    return res;
  }

 private:
  enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

  double& tab(int i, int j) {
    return tab_[static_cast<std::size_t>(i) * ncols_ + j];
  }

  void build(const Problem& p);
  Status iterate(bool phase1);
  void compute_zrow();
  int choose_entering(bool bland) const;
  void pivot(int row, int col);
  std::vector<double> recover_x() const;

  SimplexSolver::Options opts_;
  int n_struct_;  ///< structural variable count
  int m_;         ///< constraint count
  int ncols_ = 0;
  int n_art_begin_ = 0;  ///< first artificial column
  std::vector<double> tab_;    ///< m x ncols, equals B^-1 A
  std::vector<double> beta_;   ///< basic variable values
  std::vector<double> ub_;     ///< upper bounds of normalized vars (lower = 0)
  std::vector<double> cost_;   ///< current objective (phase 1 or 2)
  std::vector<double> cost2_;  ///< phase-2 objective
  std::vector<double> zrow_;   ///< reduced costs
  std::vector<int> basis_;     ///< basis_[row] = column index
  std::vector<VarState> state_;
  std::vector<double> shift_;    ///< lower bounds of structural vars
  std::vector<int> piv_cols_;    ///< scratch: nonzero pivot-row columns
  int iterations_ = 0;
  bool need_phase1_ = false;
};

void DenseTableau::build(const Problem& p) {
  // Column layout: [0, n_struct) structural, [n_struct, n_struct+m) slacks,
  // then artificials for initially-infeasible rows. Rows are normalized so
  // that Ge becomes Le (negated); Eq keeps a slack with upper bound zero.
  shift_.resize(n_struct_);
  for (int v = 0; v < n_struct_; ++v) shift_[v] = p.lower_bound(v);

  // Count artificials by computing the slack-start residual per row.
  std::vector<double> rhs_norm(m_);
  std::vector<double> slack_ub(m_);
  std::vector<int> sign(m_, 1);
  for (int i = 0; i < m_; ++i) {
    const Constraint& row = p.constraint(i);
    double b = row.rhs;
    for (const auto& [v, a] : row.terms) b -= a * shift_[v];
    const int s = (row.sense == Sense::kGe) ? -1 : 1;
    sign[i] = s;
    rhs_norm[i] = s * b;
    slack_ub[i] = (row.sense == Sense::kEq) ? 0.0 : kInf;
  }

  std::vector<int> art_rows;
  for (int i = 0; i < m_; ++i) {
    // Slack starts at clamp(rhs, 0, slack_ub); residual needs an artificial.
    const double v = rhs_norm[i];
    const double clamped = std::min(std::max(v, 0.0), slack_ub[i]);
    if (std::abs(v - clamped) > opts_.tol) art_rows.push_back(i);
  }
  need_phase1_ = !art_rows.empty();

  n_art_begin_ = n_struct_ + m_;
  ncols_ = n_art_begin_ + static_cast<int>(art_rows.size());
  tab_.assign(static_cast<std::size_t>(m_) * ncols_, 0.0);
  ub_.assign(ncols_, kInf);
  cost2_.assign(ncols_, 0.0);
  state_.assign(ncols_, VarState::kAtLower);
  beta_.assign(m_, 0.0);
  basis_.assign(m_, -1);

  for (int v = 0; v < n_struct_; ++v) {
    const double hi = p.upper_bound(v);
    ub_[v] = std::isfinite(hi) ? hi - shift_[v] : kInf;
    cost2_[v] = p.cost(v);
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& row = p.constraint(i);
    for (const auto& [v, a] : row.terms) tab(i, v) += sign[i] * a;
    tab(i, n_struct_ + i) = 1.0;
    ub_[n_struct_ + i] = slack_ub[i];
  }

  // Initial basis: slack where feasible, artificial otherwise. The basis
  // must be the identity in the tableau, so rows whose starting residual is
  // negative are negated before their artificial (coefficient +1) is added.
  int art_col = n_art_begin_;
  std::size_t next_art = 0;
  for (int i = 0; i < m_; ++i) {
    const double v = rhs_norm[i];
    const double clamped = std::min(std::max(v, 0.0), slack_ub[i]);
    if (next_art < art_rows.size() && art_rows[next_art] == i) {
      ++next_art;
      double resid = v - clamped;
      if (resid < 0) {
        // Negate the whole row (structural + slack coefficients) so the
        // artificial's column is +1. The slack stays at the same bound
        // value (always 0 here: a negative residual implies the slack was
        // clamped to its lower bound).
        for (int j = 0; j < ncols_; ++j) tab(i, j) = -tab(i, j);
        resid = -resid;
      }
      tab(i, art_col) = 1.0;
      basis_[i] = art_col;
      beta_[i] = resid;
      state_[art_col] = VarState::kBasic;
      state_[n_struct_ + i] =
          (clamped == 0.0) ? VarState::kAtLower : VarState::kAtUpper;
      ++art_col;
    } else {
      basis_[i] = n_struct_ + i;
      beta_[i] = clamped;
      state_[n_struct_ + i] = VarState::kBasic;
    }
  }
}

void DenseTableau::compute_zrow() {
  // z_j = c_j - c_B' (B^-1 A_j). tab_ holds B^-1 A.
  zrow_ = cost_;
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[basis_[i]];
    if (cb == 0.0) continue;
    const double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    for (int j = 0; j < ncols_; ++j) zrow_[j] -= cb * row[j];
  }
}

int DenseTableau::choose_entering(bool bland) const {
  // Dantzig: largest reduced-cost improvement; Bland: first eligible.
  int best = -1;
  double best_score = opts_.tol;
  for (int j = 0; j < ncols_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    const double z = zrow_[j];
    double score = 0;
    if (state_[j] == VarState::kAtLower && z < -opts_.tol) {
      score = -z;
    } else if (state_[j] == VarState::kAtUpper && z > opts_.tol) {
      score = z;
    } else {
      continue;
    }
    if (bland) return j;
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

void DenseTableau::pivot(int r, int c) {
  const double inv = 1.0 / tab(r, c);
  double* prow = &tab_[static_cast<std::size_t>(r) * ncols_];
  // Gather the pivot row's nonzeros once so the elimination loops below
  // only touch columns that can change. The pivot column itself is excluded
  // (its post-elimination value is exactly 0/1).
  piv_cols_.clear();
  for (int j = 0; j < ncols_; ++j) {
    if (prow[j] == 0.0) continue;
    prow[j] *= inv;
    if (j != c) piv_cols_.push_back(j);
  }
  prow[c] = 1.0;
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double f = tab(i, c);
    if (f == 0.0) continue;
    double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    for (int j : piv_cols_) row[j] -= f * prow[j];
    tab(i, c) = 0.0;
  }
  const double fz = zrow_[c];
  if (fz != 0.0) {
    for (int j : piv_cols_) zrow_[j] -= fz * prow[j];
    zrow_[c] = 0.0;
  }
}

Status DenseTableau::iterate(bool phase1) {
  compute_zrow();
  int stall = 0;
  bool bland = false;
  while (iterations_ < opts_.max_iterations) {
    const int j = choose_entering(bland);
    if (j < 0) return Status::kOptimal;
    ++iterations_;

    const int d = (state_[j] == VarState::kAtLower) ? 1 : -1;

    // Ratio test.
    double t_max = ub_[j];  // bound-flip distance (may be inf)
    int leave_row = -1;
    int leave_dir = 0;  // +1: leaving var hits lower; -1: hits upper
    for (int i = 0; i < m_; ++i) {
      const double e = d * tab(i, j);
      if (std::abs(e) < opts_.pivot_tol) continue;
      double t;
      int dir;
      if (e > 0) {
        t = beta_[i] / e;  // basic hits its lower bound (0)
        dir = 1;
      } else {
        if (!std::isfinite(ub_[basis_[i]])) continue;
        t = (ub_[basis_[i]] - beta_[i]) / (-e);
        dir = -1;
      }
      if (t < 0) t = 0;
      if (t < t_max - 1e-12 ||
          (leave_row >= 0 && t < t_max + 1e-12 && bland &&
           basis_[i] < basis_[leave_row])) {
        t_max = t;
        leave_row = i;
        leave_dir = dir;
      }
    }

    if (!std::isfinite(t_max)) {
      return phase1 ? Status::kInfeasible : Status::kUnbounded;
    }

    if (t_max <= 1e-11) {
      ++stall;
      if (stall > 2 * (m_ + ncols_)) bland = true;
    } else {
      stall = 0;
    }

    for (int i = 0; i < m_; ++i) beta_[i] -= d * tab(i, j) * t_max;
    if (leave_row < 0) {
      // Bound flip: the entering variable moves to its opposite bound.
      state_[j] = (state_[j] == VarState::kAtLower) ? VarState::kAtUpper
                                                    : VarState::kAtLower;
      continue;
    }

    // Basis change.
    const int leaving = basis_[leave_row];
    state_[leaving] = (leave_dir > 0) ? VarState::kAtLower : VarState::kAtUpper;
    // Entering variable's new value relative to its lower bound.
    const double enter_val = (d > 0) ? t_max : ub_[j] - t_max;
    pivot(leave_row, j);
    basis_[leave_row] = j;
    state_[j] = VarState::kBasic;
    beta_[leave_row] = enter_val;
  }
  return Status::kIterLimit;
}

std::vector<double> DenseTableau::recover_x() const {
  std::vector<double> xn(ncols_, 0.0);
  for (int j = 0; j < ncols_; ++j) {
    if (state_[j] == VarState::kAtUpper) xn[j] = ub_[j];
  }
  for (int i = 0; i < m_; ++i) xn[basis_[i]] = beta_[i];
  std::vector<double> x(n_struct_);
  for (int v = 0; v < n_struct_; ++v) x[v] = shift_[v] + xn[v];
  return x;
}

}  // namespace

Result dense_solve(const Problem& p, const SimplexSolver::Options& opts) {
  DenseTableau t(p, opts);
  return t.run(p);
}

}  // namespace vm1::lp::oracle
