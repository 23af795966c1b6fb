#include "lp/factor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lp/kernels.h"
#include "obs/metrics.h"

namespace vm1::lp::detail {

namespace {
// Entries smaller than this are dropped when storing a factor eta: they are
// below double round-off for the coefficient magnitudes the builders emit,
// and keeping them moves the inverse, and with it the pivot sequence, in
// its last bits.
constexpr double kDropTol = 1e-13;
}  // namespace

void EtaFactor::exact_weights() {
  w_.assign(m_, 0.0);
  double* w = w_.data();
  for (int c = 0; c < m_; ++c) {
    const double* col = inv_.data() + static_cast<std::size_t>(c) * m_;
    for (int i = 0; i < m_; ++i) w[i] += col[i] * col[i];
  }
}

bool EtaFactor::factorize(const BasisColumns& cols, double pivot_tol) {
  m_ = cols.cols();
  ops_.clear();
  idx_.clear();
  val_.clear();
  factored_ = false;
  updates_ = 0;
  slot_row_.assign(m_, -1);

  // Working copy of the basis columns; elimination rewrites them in place
  // (with fill-in), so they live in per-column vectors rather than a pool.
  wcols_.resize(m_);
  row_count_.assign(m_, 0);
  row_done_.assign(m_, 0);
  col_done_.assign(m_, 0);
  for (int k = 0; k < m_; ++k) {
    auto& w = wcols_[k];
    w.clear();
    for (int e = cols.ptr[k]; e < cols.ptr[k + 1]; ++e) {
      if (cols.val[e] == 0.0) continue;
      w.emplace_back(cols.idx[e], cols.val[e]);
      ++row_count_[cols.idx[e]];
    }
  }
  acc_.assign(m_, 0.0);
  stamp_.assign(m_, 0);
  gen_ = 0;

  for (int step = 0; step < m_; ++step) {
    // Markowitz selection: among entries of active columns at active rows
    // that pass threshold partial pivoting (|v| >= 0.1 * colmax), minimize
    // (row_count - 1) * (col_count - 1); break ties on magnitude.
    long best_cost = std::numeric_limits<long>::max();
    int best_k = -1, best_row = -1;
    double best_abs = 0;
    for (int k = 0; k < m_; ++k) {
      if (col_done_[k]) continue;
      double colmax = 0;
      int cnnz = 0;
      for (const auto& [i, v] : wcols_[k]) {
        if (row_done_[i]) continue;
        ++cnnz;
        double a = std::abs(v);
        if (a > colmax) colmax = a;
      }
      if (colmax < pivot_tol) continue;  // no acceptable pivot here (yet)
      double threshold = 0.1 * colmax;
      for (const auto& [i, v] : wcols_[k]) {
        if (row_done_[i]) continue;
        double a = std::abs(v);
        if (a < threshold || a < pivot_tol) continue;
        long cost = static_cast<long>(row_count_[i] - 1) *
                    static_cast<long>(cnnz - 1);
        if (cost < best_cost || (cost == best_cost && a > best_abs)) {
          best_cost = cost;
          best_k = k;
          best_row = i;
          best_abs = a;
        }
      }
    }
    if (best_k < 0) return false;  // numerically singular basis

    const auto& v = wcols_[best_k];
    double vp = 0;
    for (const auto& [i, x] : v) {
      if (i == best_row) vp = x;
    }
    Op op;
    op.row = best_row;
    op.inv_pivot = 1.0 / vp;
    op.begin = static_cast<int>(idx_.size());
    for (const auto& [i, x] : v) {
      if (i == best_row || std::abs(x) < kDropTol) continue;
      idx_.push_back(i);
      val_.push_back(x);
    }
    op.end = static_cast<int>(idx_.size());
    slot_row_[best_k] = best_row;
    col_done_[best_k] = 1;
    // The pivot column leaves the active submatrix.
    for (const auto& [i, x] : v) {
      (void)x;
      if (!row_done_[i] && i != best_row) --row_count_[i];
    }
    row_done_[best_row] = 1;

    // Gauss-Jordan: eliminate best_row from every remaining active column
    // (scatter into a dense accumulator, gather back sparse).
    for (int k2 = 0; k2 < m_; ++k2) {
      if (col_done_[k2]) continue;
      auto& w = wcols_[k2];
      double wr = 0;
      bool has = false;
      for (const auto& [i, x] : w) {
        if (i == best_row) {
          wr = x;
          has = true;
          break;
        }
      }
      if (!has || wr == 0.0) continue;
      double t = wr * op.inv_pivot;
      ++gen_;
      touched_.clear();
      for (const auto& [i, x] : w) {
        stamp_[i] = gen_;
        acc_[i] = x;
        touched_.push_back(i);
      }
      for (const auto& [i, x] : v) {
        if (i == best_row) continue;
        if (stamp_[i] != gen_) {
          stamp_[i] = gen_;
          acc_[i] = 0.0;
          touched_.push_back(i);
          if (!row_done_[i]) ++row_count_[i];  // structural fill-in
        }
        acc_[i] -= t * x;
      }
      acc_[best_row] = t;
      w.clear();
      for (int i : touched_) {
        double x = acc_[i];
        if (i != best_row && x == 0.0) {
          if (!row_done_[i]) --row_count_[i];  // exact cancellation
          continue;
        }
        w.emplace_back(i, x);
      }
    }

    ops_.push_back(op);
  }

  // Fold the etas into B^-1 one identity column at a time, so each column
  // stays in cache while every eta is applied to it.
  inv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
  fscratch_.resize(m_);
  const int* idx = idx_.data();
  const double* val = val_.data();
  for (int c = 0; c < m_; ++c) {
    double* col = inv_.data() + static_cast<std::size_t>(c) * m_;
    col[c] = 1.0;
    for (const Op& op : ops_) {
      double t = col[op.row];
      if (t == 0.0) continue;
      t *= op.inv_pivot;
      for (int e = op.begin; e < op.end; ++e) col[idx[e]] -= val[e] * t;
      col[op.row] = t;
    }
  }
  exact_weights();
  factored_ = true;
  return true;
}

void EtaFactor::reset_diagonal(const double* diag, int m) {
  m_ = m;
  updates_ = 0;
  slot_row_.resize(m);
  for (int i = 0; i < m; ++i) slot_row_[i] = i;
  inv_.assign(static_cast<std::size_t>(m) * m, 0.0);
  w_.resize(m);
  fscratch_.resize(m);
  for (int i = 0; i < m; ++i) {
    const double d = 1.0 / diag[i];
    inv_[static_cast<std::size_t>(i) * m + i] = d;
    w_[i] = d * d;
  }
  factored_ = true;
}

void EtaFactor::ftran(double* x) const {
  static obs::Counter& ftrans = obs::counter("lp.ftran");
  ftrans.add();
  // y = B^-1 x as a sum of scaled inverse columns; the loads/stores are
  // contiguous and entering columns are sparse, so most j are skipped.
  double* y = fscratch_.data();
  kernels().ftran(inv_.data(), m_, x, y);
  std::copy(y, y + m_, x);
}

void EtaFactor::btran(double* x) const {
  static obs::Counter& btrans = obs::counter("lp.btran");
  btrans.add();
  // (B^-T x)_j = <column j of B^-1, x>. The dual pivot row asks for
  // B^-T e_r constantly, so very sparse inputs take a strided gather
  // instead of m full dot products.
  double* y = fscratch_.data();
  int nnz = 0;
  int nz[4];
  for (int i = 0; i < m_; ++i) {
    if (x[i] == 0.0) continue;
    if (nnz == 4) {
      nnz = 5;
      break;
    }
    nz[nnz++] = i;
  }
  if (nnz <= 4) {
    for (int j = 0; j < m_; ++j) {
      const double* col = inv_.data() + static_cast<std::size_t>(j) * m_;
      double s = 0;
      for (int k = 0; k < nnz; ++k) s += col[nz[k]] * x[nz[k]];
      y[j] = s;
    }
  } else {
    kernels().dense_btran(inv_.data(), m_, x, y);
  }
  std::copy(y, y + m_, x);
}

bool EtaFactor::append(int row, const double* alpha, const double* rho,
                       double pivot_tol) {
  if (std::abs(alpha[row]) < pivot_tol) return false;
  // Eager product-form update: B'^-1 = E B^-1 applied column by column as a
  // rank-1 outer product. rho[c] is column c's entry in row `row`, so
  // columns where it is zero are untouched. The same pass sums
  // tau = B^-1 rho, which the weights' recurrence needs, from the columns
  // before they change.
  kernels().pivot_update(inv_.data(), w_.data(), m_, row, alpha, rho,
                         fscratch_.data());
  ++updates_;
  return true;
}

}  // namespace vm1::lp::detail
