/// \file dense_oracle.h
/// Dense-tableau simplex: the differential-test oracle for the LP engine.
///
/// An independent implementation of the same bounded-variable two-phase
/// primal simplex as src/lp, built the slow, obvious way: it keeps the full
/// m x ncols tableau B^-1 A and rewrites it on every pivot (O(m * ncols) per
/// iteration), prices Dantzig-style (largest reduced cost) and never
/// factorizes. It shares nothing with the library's revised core beyond the
/// Problem, Result and Options types, so a bug in the factorization, the
/// inverse updates or Devex pricing shows up as a disagreement in the fuzz
/// tests of tests/test_simplex.cpp. It lives in the openvm1_test_support
/// library and only test binaries link it.
#pragma once

#include "lp/simplex.h"

namespace vm1::lp::oracle {

/// Cold two-phase solve of `p`. Honours opts.max_iterations, opts.tol and
/// opts.pivot_tol; the time limit and lp::kMaxRows do not apply. Fills
/// status, objective, x and iterations.
Result dense_solve(const Problem& p, const SimplexSolver::Options& opts = {});

}  // namespace vm1::lp::oracle
