// Per-call cost of the LP's dense-inverse kernels (lp/kernels.h), the three
// loops a window LP spends most of its time in, on every kernel set this CPU
// runs: "reference" (the one-column loops the kernels replaced,
// tests/support/lp_kernel_reference.h), "portable" and, on a CPU with AVX2,
// "avx2" (google-benchmark harness, a few seconds).
//
// The argument is m, the LP's row count; the mean flow_closedm1 window LP
// has 199 rows. Inputs have the densities measured on those windows: the
// pivot row rho of BM_PivotUpdate 25% nonzeros (its FTRANed column alpha
// 89%), the input of BM_Ftran 8%. BM_DenseBtran takes a dense input, the
// case EtaFactor::btran hands its dense kernel.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "lp/kernels.h"
#include "support/lp_kernel_reference.h"
#include "util/rng.h"

namespace {

using vm1::lp::detail::Kernels;

/// A random m x m inverse and inputs at the flow's densities.
struct Inputs {
  int m = 0;
  int row = 0;
  std::vector<double> inv, w, alpha, rho, x_sparse, x_dense, out;

  explicit Inputs(int rows) : m(rows) {
    vm1::Rng rng(static_cast<std::uint64_t>(rows));
    const std::size_t mm = static_cast<std::size_t>(m) * m;
    for (std::size_t e = 0; e < mm; ++e) {
      inv.push_back(2.0 * rng.uniform_real() - 1.0);
    }
    auto draw = [&](double density, double scale) {
      std::vector<double> v(m, 0.0);
      for (double& e : v) {
        if (rng.chance(density)) e = scale * (2.0 * rng.uniform_real() - 1.0);
      }
      return v;
    };
    // Small off-pivot alpha keeps the repeated updates' drift of the
    // inverse far from overflow over a benchmark's iterations.
    alpha = draw(0.89, 1e-3);
    row = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(m)));
    alpha[row] = 1.5;
    rho = draw(0.25, 1.0);
    x_sparse = draw(0.08, 1.0);
    x_dense = draw(1.0, 1.0);
    w.assign(m, 1.0);
    out.assign(m, 0.0);
  }
};

void BM_PivotUpdate(benchmark::State& state, const Kernels* k) {
  Inputs in(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    k->pivot_update(in.inv.data(), in.w.data(), in.m, in.row, in.alpha.data(),
                    in.rho.data(), in.out.data());
    benchmark::DoNotOptimize(in.inv.data());
    benchmark::DoNotOptimize(in.w.data());
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
}

void BM_Ftran(benchmark::State& state, const Kernels* k) {
  Inputs in(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    k->ftran(in.inv.data(), in.m, in.x_sparse.data(), in.out.data());
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
}

void BM_DenseBtran(benchmark::State& state, const Kernels* k) {
  Inputs in(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    k->dense_btran(in.inv.data(), in.m, in.x_dense.data(), in.out.data());
    benchmark::DoNotOptimize(in.out.data());
    benchmark::ClobberMemory();
  }
}

}  // namespace

int main(int argc, char** argv) {
  vm1::benchutil::print_run_header("bench_lp_kernels");
  std::vector<const Kernels*> sets = {&vm1::lp::oracle::reference_kernels(),
                                      &vm1::lp::detail::portable_kernels()};
  if (const Kernels* avx2 = vm1::lp::detail::avx2_kernels()) {
    sets.push_back(avx2);
  }
  using Bench = void (*)(benchmark::State&, const Kernels*);
  const std::pair<const char*, Bench> benches[] = {
      {"BM_PivotUpdate/", BM_PivotUpdate},
      {"BM_Ftran/", BM_Ftran},
      {"BM_DenseBtran/", BM_DenseBtran}};
  for (const auto& [name, fn] : benches) {
    for (const Kernels* k : sets) {
      benchmark::RegisterBenchmark((name + std::string(k->isa)).c_str(), fn, k)
          ->Arg(64)
          ->Arg(128)
          ->Arg(200)
          ->Arg(256);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
