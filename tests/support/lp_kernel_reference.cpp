#include "support/lp_kernel_reference.h"

#include <algorithm>
#include <cstddef>

namespace vm1::lp::oracle {

void pivot_update(double* inv, double* w, int m, int row, const double* alpha,
                  const double* rho, double* tau) {
  const double inv_piv = 1.0 / alpha[row];
  std::fill(tau, tau + m, 0.0);
  double rho_norm2 = 0;
  for (int c = 0; c < m; ++c) {
    const double rc = rho[c];
    if (rc == 0.0) continue;
    rho_norm2 += rc * rc;
    const double t = rc * inv_piv;
    double* col = inv + static_cast<std::size_t>(c) * m;
    for (int i = 0; i < m; ++i) {
      const double v = col[i];
      tau[i] += v * rc;
      col[i] = v - alpha[i] * t;
    }
    col[row] = t;
  }
  for (int i = 0; i < m; ++i) {
    const double ratio = alpha[i] * inv_piv;
    if (ratio == 0.0) continue;
    const double wi = w[i] - 2.0 * ratio * tau[i] + ratio * ratio * rho_norm2;
    w[i] = std::max(wi, detail::kMinWeight);
  }
  w[row] = std::max(rho_norm2 * inv_piv * inv_piv, detail::kMinWeight);
}

void ftran(const double* inv, int m, const double* x, double* y) {
  std::fill(y, y + m, 0.0);
  for (int j = 0; j < m; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* col = inv + static_cast<std::size_t>(j) * m;
    for (int i = 0; i < m; ++i) y[i] += xj * col[i];
  }
}

void dense_btran(const double* inv, int m, const double* x, double* y) {
  for (int j = 0; j < m; ++j) {
    const double* col = inv + static_cast<std::size_t>(j) * m;
    double s = 0;
    for (int i = 0; i < m; ++i) s += col[i] * x[i];
    y[j] = s;
  }
}

const detail::Kernels& reference_kernels() {
  static constexpr detail::Kernels kReference{"reference", pivot_update, ftran,
                                              dense_btran};
  return kReference;
}

}  // namespace vm1::lp::oracle
