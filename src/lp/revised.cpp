#include "lp/revised.h"

#include <cassert>
#include <cmath>

#include "obs/metrics.h"

namespace vm1::lp::detail {

namespace {
// Relative disagreement tolerated between the FTRANed pivot element and the
// BTRANed one before the factorization is declared drifted and rebuilt.
constexpr double kConsistencyTol = 1e-7;
// Residual bound for trusting a verdict against the original matrix.
constexpr double kVerifyTol = 1e-6;
}  // namespace

void SolveWorkspace::ensure(int m, int ncols) {
  if (static_cast<int>(alpha.size()) < m) {
    alpha.resize(m);
    rho.resize(m);
    d.resize(m);
    y.resize(m);
    relabel.resize(m);
  }
  if (static_cast<int>(rowvals.size()) < ncols) {
    rowvals.resize(ncols);
    col_stamp.resize(ncols, 0);
  }
}

RevisedCore::RevisedCore(const Problem& p, const SimplexSolver::Options& opts)
    : opts_(opts),
      A_(&p.columns()),
      n_struct_(p.num_variables()),
      m_(p.num_constraints()) {}

void RevisedCore::size_for(int nart) {
  n_art_begin_ = n_struct_ + m_;
  ncols_ = n_art_begin_ + nart;
  beta_.assign(m_, 0.0);
  ub_.assign(ncols_, kInf);
  cost2_.assign(ncols_, 0.0);
  zrow_.assign(ncols_, 0.0);
  dir_.assign(ncols_, 1.0);
  basis_.assign(m_, -1);
  state_.assign(ncols_, VarState::kAtLower);
  ws_.ensure(m_, ncols_);
}

void RevisedCore::set_state(int j, VarState s) {
  state_[j] = s;
  dir_[j] = (s == VarState::kAtLower) ? 1.0
            : (s == VarState::kAtUpper) ? -1.0
                                        : 0.0;
}

void RevisedCore::load_column(int j, double* x) const {
  std::fill(x, x + m_, 0.0);
  if (j < n_struct_) {
    for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
      x[A_->row_idx[e]] = A_->val[e];
    }
  } else if (j < n_art_begin_) {
    x[j - n_struct_] = 1.0;
  } else {
    const int k = j - n_art_begin_;
    x[art_row_[k]] = art_sign_[k];
  }
}

void RevisedCore::ftran_column(int j) {
  load_column(j, ws_.alpha.data());
  factor_.ftran(ws_.alpha.data());
}

void RevisedCore::gather_pivot_row(int r) {
  double* rho = ws_.rho.data();
  std::fill(rho, rho + m_, 0.0);
  rho[r] = 1.0;
  factor_.btran(rho);

  const int gen = ++ws_.stamp_gen;
  ws_.support.clear();
  double* rv = ws_.rowvals.data();
  int* stamp = ws_.col_stamp.data();
  auto touch = [&](int j) -> double& {
    if (stamp[j] != gen) {
      stamp[j] = gen;
      rv[j] = 0.0;
      ws_.support.push_back(j);
    }
    return rv[j];
  };
  for (int i = 0; i < m_; ++i) {
    const double ri = rho[i];
    if (ri == 0.0) continue;
    for (int e = A_->row_ptr[i]; e < A_->row_ptr[i + 1]; ++e) {
      touch(A_->col_idx[e]) += ri * A_->rval[e];
    }
    touch(n_struct_ + i) += ri;  // slack column of row i is +e_i
  }
  const int nart = ncols_ - n_art_begin_;
  for (int k = 0; k < nart; ++k) {
    const double ri = rho[art_row_[k]];
    if (ri == 0.0) continue;
    touch(n_art_begin_ + k) += art_sign_[k] * ri;
  }
}

bool RevisedCore::refactorize() {
  static obs::Counter& refactorizations = obs::counter("lp.refactorizations");
  static obs::Histogram& refactor_sec = obs::histogram("lp.refactorize_sec");
  refactorizations.add();
  obs::ScopedTimer st(refactor_sec);

  ws_.cols.clear();
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[i];
    if (j < n_struct_) {
      for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
        ws_.cols.push(A_->row_idx[e], A_->val[e]);
      }
    } else if (j < n_art_begin_) {
      ws_.cols.push(j - n_struct_, 1.0);
    } else {
      const int k = j - n_art_begin_;
      ws_.cols.push(art_row_[k], art_sign_[k]);
    }
    ws_.cols.close_column();
  }
  if (!factor_.factorize(ws_.cols, opts_.pivot_tol)) return false;
  // Relabel basis slots onto their factorization pivot rows so FTRAN output
  // is row-indexed directly (column k of the basis was assigned pivot row
  // slot_row[k]).
  std::copy(basis_.begin(), basis_.end(), ws_.relabel.begin());
  const std::vector<int>& sr = factor_.slot_row();
  for (int k = 0; k < m_; ++k) basis_[sr[k]] = ws_.relabel[k];
  return true;
}

bool RevisedCore::refresh() {
  if (!refactorize()) return false;
  recompute_beta();
  recompute_zrow();
  return true;
}

void RevisedCore::compute_bprime(double* d) const {
  for (int i = 0; i < m_; ++i) d[i] = A_->rhs_norm[i];
  for (int j = 0; j < n_struct_; ++j) {
    const double s = shift_[j];
    if (s == 0.0) continue;
    for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
      d[A_->row_idx[e]] -= A_->val[e] * s;
    }
  }
}

void RevisedCore::recompute_beta() {
  double* d = ws_.d.data();
  compute_bprime(d);
  for (int j = 0; j < ncols_; ++j) {
    if (state_[j] != VarState::kAtUpper) continue;
    const double u = ub_[j];
    if (u == 0.0) continue;
    if (j < n_struct_) {
      for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
        d[A_->row_idx[e]] -= A_->val[e] * u;
      }
    } else if (j < n_art_begin_) {
      d[j - n_struct_] -= u;
    }
    // Artificials are never nonbasic at a finite nonzero upper bound.
  }
  factor_.ftran(d);
  for (int i = 0; i < m_; ++i) beta_[i] = d[i];
}

void RevisedCore::recompute_zrow() {
  double* y = ws_.y.data();
  for (int i = 0; i < m_; ++i) y[i] = cost_[basis_[i]];
  factor_.btran(y);
  for (int j = 0; j < n_struct_; ++j) {
    double z = cost_[j];
    for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
      z -= y[A_->row_idx[e]] * A_->val[e];
    }
    zrow_[j] = z;
  }
  for (int i = 0; i < m_; ++i) zrow_[n_struct_ + i] = cost_[n_struct_ + i] - y[i];
  const int nart = ncols_ - n_art_begin_;
  for (int k = 0; k < nart; ++k) {
    zrow_[n_art_begin_ + k] =
        cost_[n_art_begin_ + k] - art_sign_[k] * y[art_row_[k]];
  }
  // Basic reduced costs are identically zero; pin them so round-off never
  // makes a basic column price as eligible.
  for (int i = 0; i < m_; ++i) zrow_[basis_[i]] = 0.0;
}

bool RevisedCore::residual_ok() {
  double* r = ws_.d.data();
  compute_bprime(r);
  auto subtract = [&](int j, double v) {
    if (v == 0.0) return;
    if (j < n_struct_) {
      for (int e = A_->col_ptr[j]; e < A_->col_ptr[j + 1]; ++e) {
        r[A_->row_idx[e]] -= A_->val[e] * v;
      }
    } else if (j < n_art_begin_) {
      r[j - n_struct_] -= v;
    } else {
      const int k = j - n_art_begin_;
      r[art_row_[k]] -= art_sign_[k] * v;
    }
  };
  for (int i = 0; i < m_; ++i) subtract(basis_[i], beta_[i]);
  for (int j = 0; j < ncols_; ++j) {
    if (state_[j] == VarState::kAtUpper) subtract(j, ub_[j]);
  }
  double worst = 0;
  for (int i = 0; i < m_; ++i) worst = std::max(worst, std::abs(r[i]));
  return worst <= kVerifyTol;
}

int RevisedCore::choose_entering(bool bland) const {
  if (bland) {
    for (int j = 0; j < ncols_; ++j) {
      if (dir_[j] * zrow_[j] < -opts_.tol) return j;
    }
    return -1;
  }
  return devex_.choose(zrow_, dir_, opts_.tol);
}

bool RevisedCore::apply_pivot(int r, int q, int leave_dir, double enter_val,
                              bool use_devex) {
  const double arq = ws_.alpha[r];
  if (!factor_.append(r, ws_.alpha.data(), ws_.rho.data(), opts_.pivot_tol)) {
    return false;
  }
  const int leaving = basis_[r];
  if (use_devex) {
    devex_.update(q, leaving, arq, ws_.rowvals.data(), ws_.support.data(),
                  static_cast<int>(ws_.support.size()), dir_);
  }
  // Incremental reduced-cost update over the pivot row's support:
  //   z'_j = z_j - (z_q / a_rq) * a_rj.
  const double ratio = zrow_[q] / arq;
  if (ratio != 0.0) {
    const double* rv = ws_.rowvals.data();
    for (int s : ws_.support) {
      if (dir_[s] == 0.0) continue;  // basic / pinned: stays exact zero
      zrow_[s] -= ratio * rv[s];
    }
  }
  set_state(leaving,
            leave_dir > 0 ? VarState::kAtLower : VarState::kAtUpper);
  zrow_[leaving] = -ratio;
  basis_[r] = q;
  set_state(q, VarState::kBasic);
  zrow_[q] = 0.0;
  beta_[r] = enter_val;
  return true;
}

Status RevisedCore::iterate(bool phase1) {
  recompute_zrow();
  devex_.reset(ncols_);
  int stall = 0;
  bool bland = false;
  bool fresh = false;  // the factorization was just rebuilt and still failed
  while (iterations_ < opts_.max_iterations) {
    if (opts_.time_limit_sec > 0 && (iterations_ & 127) == 0 &&
        timer_.seconds() > opts_.time_limit_sec) {
      return Status::kIterLimit;
    }
    if (factor_.updates() >= kRefactorInterval) {
      if (!refresh()) return Status::kIterLimit;
    }
    const int j = choose_entering(bland);
    if (j < 0) return Status::kOptimal;
    ++iterations_;

    const double dj = dir_[j];
    ftran_column(j);
    const double* alpha = ws_.alpha.data();

    // Ratio test.
    double t_max = ub_[j];  // bound-flip distance (may be inf)
    int leave_row = -1;
    int leave_dir = 0;  // +1: leaving var hits lower; -1: hits upper
    for (int i = 0; i < m_; ++i) {
      const double e = dj * alpha[i];
      if (std::abs(e) < opts_.pivot_tol) continue;
      double t;
      int dirn;
      if (e > 0) {
        t = beta_[i] / e;
        dirn = 1;
      } else {
        if (!std::isfinite(ub_[basis_[i]])) continue;
        t = (ub_[basis_[i]] - beta_[i]) / (-e);
        dirn = -1;
      }
      if (t < 0) t = 0;
      if (t < t_max - 1e-12 ||
          (leave_row >= 0 && t < t_max + 1e-12 && bland &&
           basis_[i] < basis_[leave_row])) {
        t_max = t;
        leave_row = i;
        leave_dir = dirn;
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

    if (leave_row < 0) {
      // Bound flip: no basis change, no update — just shift beta.
      const double t = ub_[j];
      for (int i = 0; i < m_; ++i) beta_[i] -= dj * alpha[i] * t;
      set_state(j, state_[j] == VarState::kAtLower ? VarState::kAtUpper
                                                   : VarState::kAtLower);
      continue;
    }

    const int r = leave_row;
    gather_pivot_row(r);
    const double arq = alpha[r];
    // Consistency: the FTRANed column and BTRANed row must agree on the
    // pivot element; disagreement means the inverse has drifted.
    const bool drifted =
        std::abs(rowval(j) - arq) > kConsistencyTol * std::max(1.0, std::abs(arq));
    if (drifted) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }

    const double enter_val = (dj > 0) ? t_max : ub_[j] - t_max;
    if (!apply_pivot(r, j, leave_dir, enter_val, /*use_devex=*/!bland)) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }
    for (int i = 0; i < m_; ++i) {
      if (i != r) beta_[i] -= dj * alpha[i] * t_max;
    }
    fresh = false;
  }
  return Status::kIterLimit;
}

/// Bounded-variable dual simplex over the factorized basis. Requires a
/// dual-feasible basis; repairs primal bound violations of basic variables
/// one leaving row at a time, priced by dual steepest edge against the
/// weights the factor keeps. A pivot costs one BTRAN + one FTRAN + a sparse
/// row gather, and an infeasibility verdict is certified by an O(nnz)
/// residual check instead of a refactorization.
Status RevisedCore::dual_iterate() {
  int stall = 0;
  bool bland = false;
  bool fresh = false;
  while (iterations_ < opts_.max_iterations) {
    if (opts_.time_limit_sec > 0 && (iterations_ & 127) == 0 &&
        timer_.seconds() > opts_.time_limit_sec) {
      return Status::kIterLimit;
    }
    if (factor_.updates() >= kRefactorInterval) {
      if (!refresh()) return Status::kIterLimit;
    }
    // Leaving row by dual steepest edge: among basic variables violating a
    // bound by more than tol, the largest violation^2 / ||e_i^T B^-1||^2.
    // The division-free comparison viol^2 > best * w_i matches DevexPricing.
    int r = -1;
    bool above = false;
    double best = 0;
    const double* w = factor_.weights().data();
    for (int i = 0; i < m_; ++i) {
      double viol = -beta_[i];
      bool hi = false;
      if (viol <= opts_.tol) {
        viol = beta_[i] - ub_[basis_[i]];  // -inf for an infinite bound
        hi = true;
      }
      if (viol > opts_.tol && viol * viol > best * w[i]) {
        best = viol * viol / w[i];
        r = i;
        above = hi;
      }
    }
    if (r < 0) return Status::kOptimal;

    gather_pivot_row(r);

    // Entering column: dual ratio test over the pivot row's support
    // (columns outside it have a zero pivot element and can never enter).
    int best_j = -1;
    double best_ratio = kInf;
    double best_a = 0;
    const double* rv = ws_.rowvals.data();
    for (int j : ws_.support) {
      if (j >= n_art_begin_) continue;
      if (state_[j] == VarState::kBasic) continue;
      const double a = rv[j];
      const double arj = above ? -a : a;
      double ratio;
      if (state_[j] == VarState::kAtLower) {
        if (arj >= -opts_.pivot_tol) continue;
        ratio = std::max(0.0, zrow_[j]) / (-arj);
      } else {
        if (arj <= opts_.pivot_tol) continue;
        ratio = std::max(0.0, -zrow_[j]) / arj;
      }
      if (best_j < 0 || ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 &&
           (bland ? j < best_j : std::abs(a) > std::abs(best_a)))) {
        best_j = j;
        best_ratio = ratio;
        best_a = a;
      }
    }
    if (best_j < 0) {
      // No column can absorb the violation: primal infeasible — if the
      // numbers are real. Certify against the original matrix (O(nnz));
      // only a failed check costs a refactorization.
      if (residual_ok()) return Status::kInfeasible;
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }

    ++iterations_;
    ++dual_iterations_;
    if (best_ratio <= 1e-11) {
      ++stall;
      if (stall > 2 * (m_ + ncols_)) bland = true;
    } else {
      stall = 0;
    }

    const int q = best_j;
    ftran_column(q);
    const double arq = ws_.alpha[r];
    const bool drifted =
        std::abs(rowval(q) - arq) >
            kConsistencyTol * std::max(1.0, std::abs(arq)) ||
        std::abs(arq) < opts_.pivot_tol;
    if (drifted) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }

    const double dq = dir_[q];  // +1 entering from lower, -1 from upper
    const double target = above ? ub_[basis_[r]] : 0.0;
    double t = (beta_[r] - target) / (dq * arq);
    if (t < 0) t = 0;
    const double enter_val = (dq > 0) ? t : ub_[q] - t;
    if (!apply_pivot(r, q, above ? -1 : 1, enter_val, /*use_devex=*/false)) {
      if (fresh) return Status::kIterLimit;
      if (!refresh()) return Status::kIterLimit;
      fresh = true;
      continue;
    }
    const double* alpha = ws_.alpha.data();
    for (int i = 0; i < m_; ++i) {
      if (i != r) beta_[i] -= dq * alpha[i] * t;
    }
    fresh = false;
  }
  return Status::kIterLimit;
}

std::vector<double> RevisedCore::recover_x() const {
  std::vector<double> x(n_struct_);
  for (int v = 0; v < n_struct_; ++v) {
    x[v] = shift_[v] +
           (state_[v] == VarState::kAtUpper ? ub_[v] : 0.0);
  }
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[i];
    if (j < n_struct_) x[j] = shift_[j] + beta_[i];
  }
  return x;
}

/// Fills x/objective/reduced costs of an optimal result.
void RevisedCore::export_optimal(const Problem& p, Result* res) const {
  res->x = recover_x();
  res->objective = p.objective_value(res->x);
  res->reduced_cost.assign(zrow_.begin(), zrow_.begin() + n_struct_);
}

Result RevisedCore::run_cold(const Problem& p) {
  Result res;
  iterations_ = 0;
  dual_iterations_ = 0;
  timer_.reset();

  shift_.resize(n_struct_);
  for (int v = 0; v < n_struct_; ++v) shift_[v] = p.lower_bound(v);

  // Slack-basis residuals decide which rows need an artificial.
  ws_.ensure(m_, n_struct_ + m_);
  compute_bprime(ws_.d.data());
  art_row_.clear();
  art_sign_.clear();
  std::vector<double>& bprime = ws_.d;
  for (int i = 0; i < m_; ++i) {
    const double su = (p.constraint(i).sense == Sense::kEq) ? 0.0 : kInf;
    const double v = bprime[i];
    const double clamped = std::min(std::max(v, 0.0), su);
    if (std::abs(v - clamped) > opts_.tol) {
      art_row_.push_back(i);
      art_sign_.push_back(v - clamped < 0 ? -1.0 : 1.0);
    }
  }
  need_phase1_ = !art_row_.empty();
  size_for(static_cast<int>(art_row_.size()));

  for (int v = 0; v < n_struct_; ++v) {
    const double hi = p.upper_bound(v);
    ub_[v] = std::isfinite(hi) ? hi - shift_[v] : kInf;
    cost2_[v] = p.cost(v);
  }
  std::size_t next_art = 0;
  for (int i = 0; i < m_; ++i) {
    const int js = n_struct_ + i;
    ub_[js] = (p.constraint(i).sense == Sense::kEq) ? 0.0 : kInf;
    if (next_art < art_row_.size() && art_row_[next_art] == i) {
      const int ja = n_art_begin_ + static_cast<int>(next_art);
      ++next_art;
      basis_[i] = ja;
      set_state(ja, VarState::kBasic);
      set_state(js, VarState::kAtLower);
    } else {
      basis_[i] = js;
      set_state(js, VarState::kBasic);
    }
  }

  if (need_phase1_) {
    cost_.assign(ncols_, 0.0);
    for (int j = n_art_begin_; j < ncols_; ++j) cost_[j] = 1.0;
  } else {
    cost_ = cost2_;
  }
  // The starting basis is diagonal (slack +1 / artificial +-1 per row), so
  // it is loaded directly — no elimination, and deliberately not counted as
  // a refactorization.
  {
    double* diag = ws_.y.data();
    for (int i = 0; i < m_; ++i) diag[i] = 1.0;
    for (std::size_t k = 0; k < art_row_.size(); ++k) {
      diag[art_row_[k]] = art_sign_[k];
    }
    factor_.reset_diagonal(diag, m_);
    recompute_beta();
  }

  if (need_phase1_) {
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
    if (s == Status::kInfeasible || infeas > 1e-6) {
      res.status = Status::kInfeasible;
      res.iterations = iterations_;
      return res;
    }
    // Pin artificials to zero so they cannot re-enter (dir 0 also removes
    // them from pricing; a still-basic artificial keeps its zero value).
    for (int j = n_art_begin_; j < ncols_; ++j) {
      ub_[j] = 0.0;
      if (state_[j] != VarState::kBasic) {
        state_[j] = VarState::kAtLower;
        dir_[j] = 0.0;
      }
    }
  }

  cost_ = cost2_;
  Status s = iterate(/*phase1=*/false);
  res.status = s;
  res.iterations = iterations_;
  if (s != Status::kOptimal) return res;

  export_optimal(p, &res);
  return res;
}

Result RevisedCore::reoptimize_dual(const Problem& p) {
  Result res;
  iterations_ = 0;
  dual_iterations_ = 0;
  timer_.reset();
  res.warm_start_used = true;
  cost_ = cost2_;
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (attempt > 0 || !factor_.factorized()) {
      if (!refresh()) {
        res.status = Status::kIterLimit;
        return res;
      }
    } else {
      // Self-correcting warm entry: beta is recomputed from the current
      // bounds with one FTRAN (so set_bounds cost nothing), and the reduced
      // costs with one BTRAN + sparse dots, wiping incremental drift from
      // the previous solve without touching the factorization.
      recompute_beta();
      recompute_zrow();
    }
    Status s = dual_iterate();
    res.status = s;
    res.iterations = iterations_;
    res.dual_iterations = dual_iterations_;
    if (s == Status::kIterLimit) return res;
    if (s == Status::kInfeasible) return res;  // residual-certified inside
    export_optimal(p, &res);
    if (p.max_violation(res.x) <= 1e-6) return res;
    res.x.clear();
    res.reduced_cost.clear();
  }
  // Persistent violation even after refactorizing: cold restart.
  res.status = Status::kIterLimit;
  return res;
}

bool RevisedCore::set_bounds_incremental(int v, double lo, double hi) {
  assert(v >= 0 && v < n_struct_);
  // Beta is recomputed wholesale at the next solve, so only the normalized
  // bound bookkeeping changes here. A variable resting at an upper bound
  // that became infinite has no value to rest at — force a cold restart.
  if (state_[v] == VarState::kAtUpper && !std::isfinite(hi)) return false;
  shift_[v] = lo;
  ub_[v] = std::isfinite(hi) ? hi - lo : kInf;
  return true;
}

}  // namespace vm1::lp::detail
