/// \file lp_kernel_reference.h
/// One-column loops over the explicit inverse: the exactness reference for
/// the LP's dense-inverse kernels (lp/kernels.h).
///
/// These are the loops EtaFactor ran before its kernels were blocked four
/// columns wide: the pivot update takes one nonzero-rho column per pass over
/// the rows, FTRAN one nonzero-x column per pass, and the dense BTRAN one
/// sequential dot product per column. Each kernel set must give their
/// results bit for bit. They live in the openvm1_test_support library, which
/// only test binaries link; bench_lp_kernels compiles them in to time the
/// kernels against them.
#pragma once

#include "lp/kernels.h"

namespace vm1::lp::oracle {

/// The contract of Kernels::pivot_update.
void pivot_update(double* inv, double* w, int m, int row, const double* alpha,
                  const double* rho, double* tau);

/// The contract of Kernels::ftran.
void ftran(const double* inv, int m, const double* x, double* y);

/// The contract of Kernels::dense_btran.
void dense_btran(const double* inv, int m, const double* x, double* y);

/// The three above as a kernel set named "reference".
const detail::Kernels& reference_kernels();

}  // namespace vm1::lp::oracle
