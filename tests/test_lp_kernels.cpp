// Exactness of the LP's dense-inverse kernels (lp/kernels.h). Every kernel
// set must give the bits of the one-column reference loops
// (support/lp_kernel_reference.h): the inverse columns, tau and weights of a
// pivot update, and the FTRAN and dense BTRAN results, compared by memcmp.
// The portable set is checked on every host, the AVX2 set on a CPU with
// AVX2. Sizes cover no four-column block (m = 1, 3), exactly one (m = 4),
// one plus a leftover column (m = 5) and the flow's window LPs (m = 64, 199,
// 256); inputs have one nonzero, 25% and 100% nonzeros.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lp/kernels.h"
#include "support/lp_kernel_reference.h"
#include "util/rng.h"

namespace {

using namespace vm1;
using lp::detail::Kernels;

constexpr int kRows[] = {1, 3, 4, 5, 64, 199, 256};
// 0 stands for a single nonzero entry.
constexpr double kDensities[] = {0.0, 0.25, 1.0};
constexpr int kDrawsPerCase = 3;

// Magnitudes spread over 2^-20..2^20, so a sum added in another order or a
// fused multiply-add rounds differently.
double draw_value(Rng& rng) {
  const int e = static_cast<int>(rng.uniform(41)) - 20;
  return std::ldexp(2.0 * rng.uniform_real() - 1.0, e);
}

// Zeros of both signs between the nonzeros; at least one nonzero.
std::vector<double> draw_vector(Rng& rng, int m, double density) {
  std::vector<double> v(m);
  for (double& e : v) e = rng.chance(0.5) ? 0.0 : -0.0;
  if (density == 0.0) {
    v[rng.uniform(m)] = draw_value(rng);
    return v;
  }
  int nnz = 0;
  for (double& e : v) {
    if (rng.chance(density)) {
      e = draw_value(rng);
      ++nnz;
    }
  }
  if (nnz == 0) v[rng.uniform(m)] = draw_value(rng);
  return v;
}

std::string label(int m, double density, int draw) {
  return "m " + std::to_string(m) + ", density " + std::to_string(density) +
         ", draw " + std::to_string(draw);
}

// memcmp equality, naming the first differing element on failure.
::testing::AssertionResult same_bits(const char* what,
                                     const std::vector<double>& got,
                                     const std::vector<double>& want) {
  if (got.size() == want.size() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) ==
          0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s[%zu]: %a, reference %a", what, i,
                    got[i], want[i]);
      return ::testing::AssertionFailure() << buf;
    }
  }
  return ::testing::AssertionFailure() << what << ": size " << got.size()
                                       << ", reference " << want.size();
}

// A pivot update of a random inverse: rho at each density, alpha about 89%
// dense with a nonzero pivot, weights positive (some small enough to clamp).
void check_pivot_update(const Kernels& k) {
  const Kernels& ref = lp::oracle::reference_kernels();
  Rng rng(7001);
  for (int m : kRows) {
    for (double density : kDensities) {
      for (int draw = 0; draw < kDrawsPerCase; ++draw) {
        const std::vector<double> inv0 = draw_vector(rng, m * m, 1.0);
        const std::vector<double> rho = draw_vector(rng, m, density);
        std::vector<double> alpha = draw_vector(rng, m, 0.89);
        const int row = static_cast<int>(rng.uniform(m));
        alpha[row] = 0.5 + rng.uniform_real();
        std::vector<double> w0(m);
        for (double& e : w0) {
          e = rng.chance(0.1) ? 1e-14 : std::abs(draw_value(rng));
        }

        std::vector<double> inv_ref = inv0, w_ref = w0, tau_ref(m, 12345.0);
        ref.pivot_update(inv_ref.data(), w_ref.data(), m, row, alpha.data(),
                         rho.data(), tau_ref.data());
        std::vector<double> inv = inv0, w = w0, tau(m, -777.0);
        k.pivot_update(inv.data(), w.data(), m, row, alpha.data(), rho.data(),
                       tau.data());
        const std::string at = label(m, density, draw);
        EXPECT_TRUE(same_bits("inverse", inv, inv_ref)) << at;
        EXPECT_TRUE(same_bits("tau", tau, tau_ref)) << at;
        EXPECT_TRUE(same_bits("weights", w, w_ref)) << at;
      }
    }
  }
}

void check_ftran(const Kernels& k) {
  const Kernels& ref = lp::oracle::reference_kernels();
  Rng rng(7002);
  for (int m : kRows) {
    for (double density : kDensities) {
      for (int draw = 0; draw < kDrawsPerCase; ++draw) {
        const std::vector<double> inv = draw_vector(rng, m * m, 1.0);
        const std::vector<double> x = draw_vector(rng, m, density);
        std::vector<double> y_ref(m, 12345.0), y(m, -777.0);
        ref.ftran(inv.data(), m, x.data(), y_ref.data());
        k.ftran(inv.data(), m, x.data(), y.data());
        EXPECT_TRUE(same_bits("ftran", y, y_ref)) << label(m, density, draw);
      }
    }
  }
}

void check_dense_btran(const Kernels& k) {
  const Kernels& ref = lp::oracle::reference_kernels();
  Rng rng(7003);
  for (int m : kRows) {
    for (double density : kDensities) {
      for (int draw = 0; draw < kDrawsPerCase; ++draw) {
        const std::vector<double> inv = draw_vector(rng, m * m, 1.0);
        const std::vector<double> x = draw_vector(rng, m, density);
        std::vector<double> y_ref(m, 12345.0), y(m, -777.0);
        ref.dense_btran(inv.data(), m, x.data(), y_ref.data());
        k.dense_btran(inv.data(), m, x.data(), y.data());
        EXPECT_TRUE(same_bits("btran", y, y_ref)) << label(m, density, draw);
      }
    }
  }
}

TEST(LpKernels, PortablePivotUpdateMatchesReference) {
  check_pivot_update(lp::detail::portable_kernels());
}

TEST(LpKernels, PortableFtranMatchesReference) {
  check_ftran(lp::detail::portable_kernels());
}

TEST(LpKernels, PortableDenseBtranMatchesReference) {
  check_dense_btran(lp::detail::portable_kernels());
}

TEST(LpKernels, Avx2PivotUpdateMatchesReference) {
  const Kernels* k = lp::detail::avx2_kernels();
  if (k == nullptr) GTEST_SKIP() << "no AVX2 kernels on this CPU";
  check_pivot_update(*k);
}

TEST(LpKernels, Avx2FtranMatchesReference) {
  const Kernels* k = lp::detail::avx2_kernels();
  if (k == nullptr) GTEST_SKIP() << "no AVX2 kernels on this CPU";
  check_ftran(*k);
}

TEST(LpKernels, Avx2DenseBtranMatchesReference) {
  const Kernels* k = lp::detail::avx2_kernels();
  if (k == nullptr) GTEST_SKIP() << "no AVX2 kernels on this CPU";
  check_dense_btran(*k);
}

// The process runs the AVX2 set wherever there is one, and kernel_isa()
// names the set it runs.
TEST(LpKernels, ProcessRunsTheWidestSet) {
  const Kernels* avx2 = lp::detail::avx2_kernels();
  const Kernels& picked = lp::detail::kernels();
  EXPECT_EQ(&picked, avx2 != nullptr ? avx2 : &lp::detail::portable_kernels());
  EXPECT_STREQ(lp::kernel_isa(), picked.isa);
  EXPECT_STREQ(lp::kernel_isa(), avx2 != nullptr ? "avx2" : "portable");
}

}  // namespace
