/// \file kernels.h
/// The dense-inverse kernels of EtaFactor (lp/factor.h): the pivot update,
/// FTRAN and the dense BTRAN, the three loops a window LP spends most of its
/// time in.
///
/// Each kernel body is written once and compiled twice: a portable build,
/// and on x86-64 an AVX2 build (a `gnu::target("avx2")` wrapper around the
/// same always-inline body). The process picks the AVX2 set once, when the
/// CPU reports AVX2, so a binary built without any -m/-march flag still runs
/// 256-bit loops where it can.
///
/// Both sets give the bits of the one-column loops they replaced, on any
/// host: coordinator and workers may run on different CPUs, and the solve
/// cache serves windows across runs. So a kernel
///   - vectorizes only across independent elements (rows of a column pass,
///     or columns of a dot-product block);
///   - never reassociates a sum: a row's terms are added in column order,
///     four columns per pass over the rows, and a dot product adds its rows
///     in order;
///   - never fuses a multiply-add: the AVX2 target leaves out FMA, and the
///     project compiles with -ffp-contract=off.
/// tests/test_lp_kernels.cpp checks both sets against those loops
/// (tests/support/lp_kernel_reference.h) bit for bit.
#pragma once

namespace vm1::lp {

/// The kernel set this process runs: "avx2" or "portable".
const char* kernel_isa();

namespace detail {

/// Floor of an updated steepest-edge weight: cancellation in the recurrence
/// must never leave a zero or negative norm for the pricing to divide by.
inline constexpr double kMinWeight = 1e-12;

/// One build of the kernels. `inv` is an m x m inverse, column-major
/// (inv[c*m + i] is row i of column c). Output arrays alias no input.
struct Kernels {
  const char* isa;

  /// The product-form update of a pivot at `row` whose FTRANed entering
  /// column is `alpha` (alpha[row] != 0), given rho = e_row^T B^-1. For every
  /// column c with rho[c] != 0, in increasing c: tau[i] += inv[c][i] * rho[c]
  /// (from tau = 0, with the column as it was), inv[c][i] -= alpha[i] * t_c,
  /// then inv[c][row] = t_c, where t_c = rho[c] / alpha[row]. Then the
  /// steepest-edge weights w (length m) take Forrest and Goldfarb's
  /// recurrence from tau and ||rho||^2. tau is m doubles of scratch.
  void (*pivot_update)(double* inv, double* w, int m, int row,
                       const double* alpha, const double* rho, double* tau);

  /// y = B^-1 x: from y = 0, for every j with x[j] != 0, in increasing j,
  /// y[i] += x[j] * inv[j][i].
  void (*ftran)(const double* inv, int m, const double* x, double* y);

  /// y = B^-T x as m dot products: y[j] = sum over i, in increasing i from
  /// 0, of inv[j][i] * x[i].
  void (*dense_btran)(const double* inv, int m, const double* x, double* y);
};

/// The portable build.
const Kernels& portable_kernels();

/// The AVX2 build, or nullptr when the binary has none (not x86-64) or the
/// CPU lacks AVX2.
const Kernels* avx2_kernels();

/// The set the process runs: avx2_kernels() when there is one, else
/// portable_kernels().
const Kernels& kernels();

}  // namespace detail
}  // namespace vm1::lp
