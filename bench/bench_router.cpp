// Infrastructure micro-benchmarks: placement + routing throughput per
// architecture (google-benchmark harness).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/flow.h"
#include "obs/metrics.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "route/router.h"

namespace {

using namespace vm1;

Design placed(CellArch arch, double scale) {
  DesignOptions opts;
  opts.scale = scale;
  Design d = make_design("tiny", arch, opts);
  global_place(d);
  legalize(d);
  return d;
}

// Besides the route's dM1 and RWL, reports the maze search's work per route
// (open-list pops and pushes) and its pop rate, so a time change splits
// into more work or slower work.
void BM_RouteTiny(benchmark::State& state) {
  CellArch arch = static_cast<CellArch>(state.range(0));
  Design d = placed(arch, 1.0);
  obs::Counter& pops = obs::counter("route.maze_expansions");
  obs::Counter& pushes = obs::counter("route.maze_pushes");
  const long pops0 = pops.value();
  const long pushes0 = pushes.value();
  for (auto _ : state) {
    Router router(d);
    RouteMetrics m = router.route();
    // The whole struct: given the lone `long` member, DoNotOptimize's
    // two-alternative asm operand for small types left RWL reading 4.9e18
    // under GCC 12.2 -O3.
    benchmark::DoNotOptimize(m);
    state.counters["dM1"] = static_cast<double>(m.num_dm1);
    state.counters["RWL"] = static_cast<double>(m.rwl_dbu);
  }
  const auto n_pops = static_cast<double>(pops.value() - pops0);
  const auto n_pushes = static_cast<double>(pushes.value() - pushes0);
  state.counters["pops"] =
      benchmark::Counter(n_pops, benchmark::Counter::kAvgIterations);
  state.counters["pushes"] =
      benchmark::Counter(n_pushes, benchmark::Counter::kAvgIterations);
  state.counters["pops_per_s"] =
      benchmark::Counter(n_pops, benchmark::Counter::kIsRate);
  state.SetLabel(to_string(arch));
}
BENCHMARK(BM_RouteTiny)
    ->Arg(static_cast<int>(CellArch::kClosedM1))
    ->Arg(static_cast<int>(CellArch::kOpenM1))
    ->Arg(static_cast<int>(CellArch::kConventional12T))
    ->Unit(benchmark::kMillisecond);

void BM_PlaceAndLegalize(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0));
  for (auto _ : state) {
    Design d = placed(CellArch::kClosedM1, scale);
    benchmark::DoNotOptimize(d.placement(0).x);
  }
}
BENCHMARK(BM_PlaceAndLegalize)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

// Expanded BENCHMARK_MAIN() so the shared run header prints first.
int main(int argc, char** argv) {
  vm1::benchutil::print_run_header("bench_router");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
