#include "lp/kernels.h"

#include <algorithm>
#include <cstddef>

// The AVX2 build needs the target attribute and the CPU feature query.
#if defined(__x86_64__) && defined(__GNUC__)
#define VM1_LP_AVX2 1
#include <cpuid.h>
#endif

// Every body below is inlined into each of its wrappers, so each wrapper
// compiles it for its own target. The __restrict parameters of the row
// loops let the compiler vectorize them without run-time alias checks.
#define VM1_KERNEL inline __attribute__((always_inline))

namespace vm1::lp {
namespace detail {
namespace {

// ---- Pivot update ----

// One column's rank-1 update and tau term.
VM1_KERNEL void update1(int m, int row, const double* __restrict alpha,
                        double* __restrict tau, double* __restrict col,
                        double rc, double t) {
  for (int i = 0; i < m; ++i) {
    const double v = col[i];
    tau[i] += v * rc;
    col[i] = v - alpha[i] * t;
  }
  col[row] = t;
}

// Four columns in one pass over the rows. tau_i adds c0's term first, then
// c1's, c2's and c3's: the order of four update1 calls.
VM1_KERNEL void update4(int m, int row, const double* __restrict alpha,
                        double* __restrict tau, double* __restrict c0,
                        double* __restrict c1, double* __restrict c2,
                        double* __restrict c3, double r0, double r1,
                        double r2, double r3, double t0, double t1, double t2,
                        double t3) {
  for (int i = 0; i < m; ++i) {
    const double a = alpha[i];
    const double v0 = c0[i], v1 = c1[i], v2 = c2[i], v3 = c3[i];
    tau[i] = (((tau[i] + v0 * r0) + v1 * r1) + v2 * r2) + v3 * r3;
    c0[i] = v0 - a * t0;
    c1[i] = v1 - a * t1;
    c2[i] = v2 - a * t2;
    c3[i] = v3 - a * t3;
  }
  c0[row] = t0;
  c1[row] = t1;
  c2[row] = t2;
  c3[row] = t3;
}

VM1_KERNEL void pivot_update_body(double* inv, double* w, int m, int row,
                                  const double* alpha, const double* rho,
                                  double* tau) {
  const double inv_piv = 1.0 / alpha[row];
  const std::size_t sm = static_cast<std::size_t>(m);
  for (int i = 0; i < m; ++i) tau[i] = 0.0;
  double rho_norm2 = 0;
  int c = 0;
  for (;;) {
    // The next (up to) four columns with a nonzero rho entry, in order.
    int nz[4];
    int k = 0;
    for (; c < m && k < 4; ++c) {
      const double rc = rho[c];
      if (rc == 0.0) continue;
      rho_norm2 += rc * rc;
      nz[k++] = c;
    }
    if (k < 4) {
      for (int q = 0; q < k; ++q) {
        const double rc = rho[nz[q]];
        update1(m, row, alpha, tau, inv + nz[q] * sm, rc, rc * inv_piv);
      }
      break;
    }
    const double r0 = rho[nz[0]], r1 = rho[nz[1]], r2 = rho[nz[2]],
                 r3 = rho[nz[3]];
    update4(m, row, alpha, tau, inv + nz[0] * sm, inv + nz[1] * sm,
            inv + nz[2] * sm, inv + nz[3] * sm, r0, r1, r2, r3, r0 * inv_piv,
            r1 * inv_piv, r2 * inv_piv, r3 * inv_piv);
  }
  // Row i of the new inverse is rho_i - (alpha_i / alpha_r) rho, and row
  // `row` is rho / alpha_r, which expands the squared norms as below.
  for (int i = 0; i < m; ++i) {
    const double ratio = alpha[i] * inv_piv;
    if (ratio == 0.0) continue;
    const double wi = w[i] - 2.0 * ratio * tau[i] + ratio * ratio * rho_norm2;
    w[i] = std::max(wi, kMinWeight);
  }
  w[row] = std::max(rho_norm2 * inv_piv * inv_piv, kMinWeight);
}

// ---- FTRAN ----

VM1_KERNEL void axpy1(int m, double* __restrict y, const double* __restrict col,
                      double xj) {
  for (int i = 0; i < m; ++i) y[i] += xj * col[i];
}

// Four scaled columns in one pass, added in column order.
VM1_KERNEL void axpy4(int m, double* __restrict y, const double* __restrict c0,
                      const double* __restrict c1, const double* __restrict c2,
                      const double* __restrict c3, double x0, double x1,
                      double x2, double x3) {
  for (int i = 0; i < m; ++i) {
    y[i] = (((y[i] + x0 * c0[i]) + x1 * c1[i]) + x2 * c2[i]) + x3 * c3[i];
  }
}

VM1_KERNEL void ftran_body(const double* inv, int m, const double* x,
                           double* y) {
  const std::size_t sm = static_cast<std::size_t>(m);
  for (int i = 0; i < m; ++i) y[i] = 0.0;
  int j = 0;
  for (;;) {
    int nz[4];
    int k = 0;
    for (; j < m && k < 4; ++j) {
      if (x[j] != 0.0) nz[k++] = j;
    }
    if (k < 4) {
      for (int q = 0; q < k; ++q) axpy1(m, y, inv + nz[q] * sm, x[nz[q]]);
      break;
    }
    axpy4(m, y, inv + nz[0] * sm, inv + nz[1] * sm, inv + nz[2] * sm,
          inv + nz[3] * sm, x[nz[0]], x[nz[1]], x[nz[2]], x[nz[3]]);
  }
}

// ---- Dense BTRAN ----

// Four columns' dot products interleaved: four independent add chains, each
// summing its rows in order.
VM1_KERNEL void dense_btran_body(const double* inv, int m,
                                 const double* __restrict x,
                                 double* __restrict y) {
  const std::size_t sm = static_cast<std::size_t>(m);
  int j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* __restrict c0 = inv + j * sm;
    const double* __restrict c1 = c0 + sm;
    const double* __restrict c2 = c1 + sm;
    const double* __restrict c3 = c2 + sm;
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (int i = 0; i < m; ++i) {
      const double xi = x[i];
      s0 += c0[i] * xi;
      s1 += c1[i] * xi;
      s2 += c2[i] * xi;
      s3 += c3[i] * xi;
    }
    y[j] = s0;
    y[j + 1] = s1;
    y[j + 2] = s2;
    y[j + 3] = s3;
  }
  for (; j < m; ++j) {
    const double* col = inv + j * sm;
    double s = 0;
    for (int i = 0; i < m; ++i) s += col[i] * x[i];
    y[j] = s;
  }
}

// ---- The two builds ----

void pivot_update_portable(double* inv, double* w, int m, int row,
                           const double* alpha, const double* rho,
                           double* tau) {
  pivot_update_body(inv, w, m, row, alpha, rho, tau);
}
void ftran_portable(const double* inv, int m, const double* x, double* y) {
  ftran_body(inv, m, x, y);
}
void dense_btran_portable(const double* inv, int m, const double* x,
                          double* y) {
  dense_btran_body(inv, m, x, y);
}

constexpr Kernels kPortable{"portable", pivot_update_portable, ftran_portable,
                            dense_btran_portable};

#ifdef VM1_LP_AVX2
[[gnu::target("avx2")]] void pivot_update_avx2(double* inv, double* w, int m,
                                               int row, const double* alpha,
                                               const double* rho,
                                               double* tau) {
  pivot_update_body(inv, w, m, row, alpha, rho, tau);
}
[[gnu::target("avx2")]] void ftran_avx2(const double* inv, int m,
                                        const double* x, double* y) {
  ftran_body(inv, m, x, y);
}

// The dense BTRAN keeps its portable build. The AVX2 build packs the four
// add chains into one register and transposes every four rows into it;
// bench_lp_kernels timed it at 1.7x the portable loop's cost (m = 200).
constexpr Kernels kAvx2{"avx2", pivot_update_avx2, ftran_avx2,
                        dense_btran_portable};
#endif

#ifdef VM1_LP_AVX2
// The CPU has AVX2 and the OS saves the YMM registers (CPUID, then XCR0).
// Queried here rather than by __builtin_cpu_supports, whose libgcc CPU
// model code links in ahead of the program's own and moves every later
// function of a binary, and with it each hot loop's cache-line placement.
bool cpu_has_avx2() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if ((c & bit_OSXSAVE) == 0 || (c & bit_AVX) == 0) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6) != 0x6) return false;  // XMM and YMM state
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_AVX2) != 0;
}
#endif

}  // namespace

const Kernels& portable_kernels() { return kPortable; }

const Kernels* avx2_kernels() {
#ifdef VM1_LP_AVX2
  static const bool has_avx2 = cpu_has_avx2();
  return has_avx2 ? &kAvx2 : nullptr;
#else
  return nullptr;
#endif
}

const Kernels& kernels() {
  static const Kernels& picked =
      avx2_kernels() != nullptr ? *avx2_kernels() : kPortable;
  return picked;
}

}  // namespace detail

const char* kernel_isa() { return detail::kernels().isa; }

}  // namespace vm1::lp
