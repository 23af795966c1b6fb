// Per-call costs of a cache-served window (google-benchmark harness): the
// canonical window signature over every window of one DistOpt pass, and the
// full-design objective each pass ends with. When the solve cache serves
// every window, as on a resubmitted service job, these two are most of the
// job's own work.
//
// Design: aes at scale 1.0 (1,120 instances), placed by prepare_design as
// the paper's flow places it, at the operating point U = {(20, 4, 1)}.
// BM_WindowSignature reports `per_sig`, the time of one signature, and the
// mean incident nets and pins it reads per window.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "core/incremental.h"
#include "core/window.h"

namespace {

using namespace vm1;
using namespace vm1::benchutil;

/// The placed aes design of `arch`, built once per architecture.
const Design& placed_aes(CellArch arch) {
  static std::unique_ptr<Design> designs[3];
  std::unique_ptr<Design>& d = designs[static_cast<int>(arch)];
  if (!d) {
    double place_s = 0;
    d = std::make_unique<Design>(
        prepare_design(paper_flow("aes", arch, 1200, 1.0), &place_s));
  }
  return *d;
}

/// The move pass of the operating point, as vm1opt's first pass runs it.
DistOptOptions move_pass(CellArch arch) {
  const VM1OptOptions v = paper_vm1_options(1200, arch);
  const ParamSet& u = v.sequence.front();
  DistOptOptions o;
  o.bw = u.bw;
  o.bh = u.rows();
  o.lx = u.lx;
  o.ly = u.ly;
  o.allow_move = true;
  o.allow_flip = false;
  o.params = v.params;
  o.mip = v.mip;
  return o;
}

void BM_WindowSignature(benchmark::State& state) {
  const CellArch arch = static_cast<CellArch>(state.range(0));
  const Design& d = placed_aes(arch);
  const DistOptOptions o = move_pass(arch);
  const WindowGrid grid = partition_windows(d, o.tx, o.ty, o.bw, o.bh);
  const std::vector<std::vector<int>> nets =
      window_incident_nets(grid, d.netlist());
  const std::vector<SiteMask> masks = window_fixed_masks(grid, d);
  std::vector<int> windows;
  double incident = 0;
  double pins = 0;
  for (std::size_t w = 0; w < grid.windows.size(); ++w) {
    if (grid.movable[w].empty()) continue;
    windows.push_back(static_cast<int>(w));
    incident += static_cast<double>(nets[w].size());
    for (int n : nets[w]) {
      pins += static_cast<double>(d.netlist().net(n).pins.size());
    }
  }
  for (auto _ : state) {
    for (int w : windows) {
      WindowSig sig = window_signature(d, grid.windows[w], grid.movable[w],
                                       grid.owner, w, nets[w], masks[w], o);
      benchmark::DoNotOptimize(sig);
    }
  }
  const double n = static_cast<double>(windows.size());
  state.counters["windows"] = n;
  state.counters["nets_per_window"] = incident / n;
  state.counters["pins_per_window"] = pins / n;
  state.counters["per_sig"] = benchmark::Counter(
      n, benchmark::Counter::kIsIterationInvariantRate |
             benchmark::Counter::kInvert);
  state.SetLabel(to_string(arch));
}
BENCHMARK(BM_WindowSignature)
    ->Arg(static_cast<int>(CellArch::kClosedM1))
    ->Arg(static_cast<int>(CellArch::kOpenM1))
    ->Unit(benchmark::kMicrosecond);

void BM_EvaluateObjective(benchmark::State& state) {
  const CellArch arch = static_cast<CellArch>(state.range(0));
  const Design& d = placed_aes(arch);
  const VM1Params params = paper_vm1_options(1200, arch).params;
  for (auto _ : state) {
    ObjectiveBreakdown o = evaluate_objective(d, params);
    benchmark::DoNotOptimize(o);
  }
  state.SetLabel(to_string(arch));
}
BENCHMARK(BM_EvaluateObjective)
    ->Arg(static_cast<int>(CellArch::kClosedM1))
    ->Arg(static_cast<int>(CellArch::kOpenM1))
    ->Unit(benchmark::kMicrosecond);

}  // namespace

// Expanded BENCHMARK_MAIN() so the shared run header prints first.
int main(int argc, char** argv) {
  vm1::benchutil::print_run_header("bench_signature");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
