// Infrastructure micro-benchmarks: simplex LP and branch-and-bound MILP
// throughput on window-MILP-shaped instances (google-benchmark harness),
// preceded by a warm-vs-cold branch-and-bound study that writes
// BENCH_solver.json (total LP iterations, wall time, warm/cold counters)
// for cross-commit trajectory tracking.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "core/incremental.h"
#include "milp/branch_and_bound.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

using namespace vm1;

/// Assignment-like LP with `cells` cells x `cands` candidates plus
/// exclusivity rows — the LP relaxation shape of a window MILP.
lp::Problem make_assignment_lp(int cells, int cands, std::uint64_t seed) {
  Rng rng(seed);
  lp::Problem p;
  std::vector<std::vector<int>> vars(cells);
  for (int c = 0; c < cells; ++c) {
    for (int k = 0; k < cands; ++k) {
      vars[c].push_back(
          p.add_variable(0, 1, static_cast<double>(rng.uniform(100))));
    }
  }
  for (int c = 0; c < cells; ++c) {
    std::vector<std::pair<int, double>> row;
    for (int v : vars[c]) row.emplace_back(v, 1.0);
    p.add_constraint(row, lp::Sense::kEq, 1);
  }
  // Random exclusivity rows couple the cells like shared sites.
  for (int r = 0; r < cells * 2; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int c = 0; c < cells; ++c) {
      row.emplace_back(vars[c][rng.uniform(cands)], 1.0);
    }
    p.add_constraint(row, lp::Sense::kLe, 1);
  }
  return p;
}

/// Window-MILP-shaped instance: per-cell candidate binaries (SCP lambdas)
/// with exclusivity, shared-site coupling, and alignment-indicator binaries
/// rewarded through big-M rows — the structure of the OpenM1 windows
/// DistOpt hands to branch-and-bound thousands of times per pass.
milp::Model make_window_milp(int cells, int cands, int pairs,
                             std::uint64_t seed) {
  Rng rng(seed);
  milp::Model m;
  std::vector<std::vector<int>> lam(cells);
  std::vector<int> xpos(cells);  // continuous cell position
  for (int c = 0; c < cells; ++c) {
    for (int k = 0; k < cands; ++k) {
      lam[c].push_back(
          m.add_binary(0.1 * static_cast<double>(rng.uniform(40))));
    }
    xpos[c] = m.add_continuous(0, 30, 0);
    // Position follows the chosen candidate: x = sum_k k * lambda_k.
    std::vector<std::pair<int, double>> link{{xpos[c], 1.0}};
    for (int k = 0; k < cands; ++k) {
      link.emplace_back(lam[c][k], -static_cast<double>(rng.uniform(30)));
    }
    m.add_constraint(link, lp::Sense::kEq, 0);
    std::vector<std::pair<int, double>> excl;
    for (int v : lam[c]) excl.emplace_back(v, 1.0);
    m.add_constraint(excl, lp::Sense::kEq, 1);
  }
  for (int r = 0; r < cells; ++r) {
    std::vector<std::pair<int, double>> row;
    for (int c = 0; c < cells; ++c) {
      row.emplace_back(lam[c][rng.uniform(cands)], 1.0);
    }
    m.add_constraint(row, lp::Sense::kLe, 1);
  }
  // Alignment indicators d_pq with big-M coupling (the big-M form of Eq. (4)).
  const double big_m = 40;
  for (int i = 0; i < pairs; ++i) {
    int a = static_cast<int>(rng.uniform(cells));
    int b = static_cast<int>(rng.uniform(cells));
    if (a == b) continue;
    int d = m.add_binary(-6.0 - static_cast<double>(rng.uniform(6)));
    m.set_branch_priority(d, 1);
    m.add_constraint({{xpos[a], 1.0}, {xpos[b], -1.0}, {d, big_m}},
                     lp::Sense::kLe, big_m);
    m.add_constraint({{xpos[b], 1.0}, {xpos[a], -1.0}, {d, big_m}},
                     lp::Sense::kLe, big_m);
  }
  return m;
}

struct SuiteTotals {
  long lp_iters = 0;
  long dual_pivots = 0;
  long nodes = 0;
  long warm_solves = 0;
  long cold_restarts = 0;
  long rc_fixed = 0;
  double wall_s = 0;
  std::vector<double> objective;  // per instance
  std::vector<bool> proved;       // per instance: optimality proved
};

/// Solves the same randomized window-MILP suite with basis reuse on or off.
/// Wherever both modes prove optimality the objectives must match exactly —
/// only the pivot accounting may differ.
SuiteTotals run_suite(bool warm, int instances) {
  SuiteTotals t;
  Timer timer;
  for (int i = 0; i < instances; ++i) {
    milp::Model m = make_window_milp(6 + i % 5, 4 + i % 3, 8 + i % 6,
                                     1000 + static_cast<std::uint64_t>(i));
    milp::BranchAndBound::Options opts;
    opts.max_nodes = 100000;
    opts.use_warm_start = warm;
    milp::MipResult r = milp::BranchAndBound(opts).solve(m);
    t.lp_iters += r.lp_iterations;
    t.dual_pivots += r.dual_pivots;
    t.nodes += r.nodes_explored;
    t.warm_solves += r.warm_solves;
    t.cold_restarts += r.cold_restarts;
    t.rc_fixed += r.rc_fixed;
    t.objective.push_back(r.x.empty() ? 0.0 : r.objective);
    t.proved.push_back(r.status == milp::MipStatus::kOptimal);
  }
  t.wall_s = timer.seconds();
  return t;
}

void write_totals(benchutil::JsonWriter& jw, const char* key,
                  const SuiteTotals& t) {
  double obj_sum = 0;
  long proved = 0;
  for (std::size_t i = 0; i < t.objective.size(); ++i) {
    obj_sum += t.objective[i];
    proved += t.proved[i] ? 1 : 0;
  }
  jw.begin_object(key);
  jw.field("lp_iterations", t.lp_iters);
  jw.field("dual_pivots", t.dual_pivots);
  jw.field("nodes", t.nodes);
  jw.field("warm_start_hits", t.warm_solves);
  jw.field("cold_restarts", t.cold_restarts);
  jw.field("rc_fixed", t.rc_fixed);
  jw.field("proved_optimal", proved);
  jw.field("objective_sum", obj_sum);
  jw.field("wall_s", t.wall_s);
  jw.end_object();
}

/// Repeated real DistOpt passes on the tiny design so the solver JSON also
/// tracks the guardrail outcome taxonomy — and, when VM1_FAULTS is set, how
/// the fallback cascade absorbed the injected faults. The three passes
/// share one IncrementalState: once the first pass reaches a fixpoint, the
/// later passes are served from window-signature memos, so the JSON shows
/// the skip/hit counters under realistic reuse.
void guardrail_study(benchutil::JsonWriter& jw) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  global_place(d);
  legalize(d);
  DistOptOptions o;
  o.bw = 16;
  o.bh = 2;
  o.lx = 3;
  o.ly = 1;
  o.mip.max_nodes = 60;
  o.mip.time_limit_sec = 2.0;
  IncrementalState inc;
  o.inc = &inc;
  ThreadPool pool(benchutil::env_threads());
  DistOptStats s1 = dist_opt(d, o, &pool);
  DistOptStats s2 = dist_opt(d, o, &pool);
  DistOptStats s3 = dist_opt(d, o, &pool);
  std::printf("guardrails (tiny, three move passes): %d windows -> %d "
              "solved, %d rounding, %d greedy, %d audit-rejected, %d kept, "
              "%d faulted (%ld faults injected), %d skipped "
              "(%ld signature hits)\n\n",
              s1.windows + s2.windows + s3.windows,
              s1.solved + s2.solved + s3.solved,
              s1.fallback_rounding + s2.fallback_rounding +
                  s3.fallback_rounding,
              s1.fallback_greedy + s2.fallback_greedy + s3.fallback_greedy,
              s1.rejected_audit + s2.rejected_audit + s3.rejected_audit,
              s1.kept + s2.kept + s3.kept,
              s1.faulted + s2.faulted + s3.faulted,
              s1.faults_injected + s2.faults_injected + s3.faults_injected,
              s1.skipped + s2.skipped + s3.skipped,
              s1.signature_hits + s2.signature_hits + s3.signature_hits);
  benchutil::write_window_outcomes(jw, {&s1, &s2, &s3});
}

/// Warm-vs-cold branch-and-bound study; prints a table and writes
/// BENCH_solver.json. Returns nonzero on objective mismatch (exactness is
/// part of the contract, not just speed) and, in quick mode (the CI
/// perf-smoke job), when warm-start re-solves fail to beat cold wall time.
int warm_cold_study(int instances, bool quick) {
  SuiteTotals cold = run_suite(false, instances);
  SuiteTotals warm = run_suite(true, instances);

  double iter_ratio = warm.lp_iters > 0
                          ? static_cast<double>(cold.lp_iters) /
                                static_cast<double>(warm.lp_iters)
                          : 0;
  double warm_speedup = warm.wall_s > 0 ? cold.wall_s / warm.wall_s : 0;
  std::printf("B&B warm-start study (%d window-shaped MILPs)\n", instances);
  std::printf("  %-18s %12s %12s\n", "", "cold", "warm");
  std::printf("  %-18s %12ld %12ld\n", "LP iterations", cold.lp_iters,
              warm.lp_iters);
  std::printf("  %-18s %12ld %12ld\n", "dual pivots", cold.dual_pivots,
              warm.dual_pivots);
  std::printf("  %-18s %12ld %12ld\n", "nodes", cold.nodes, warm.nodes);
  std::printf("  %-18s %12ld %12ld\n", "warm-start hits", cold.warm_solves,
              warm.warm_solves);
  std::printf("  %-18s %12ld %12ld\n", "cold restarts", cold.cold_restarts,
              warm.cold_restarts);
  std::printf("  %-18s %12ld %12ld\n", "rc-fixed binaries", cold.rc_fixed,
              warm.rc_fixed);
  std::printf("  %-18s %12.3f %12.3f\n", "wall seconds", cold.wall_s,
              warm.wall_s);
  std::printf("  iteration reduction: %.2fx\n", iter_ratio);
  std::printf("  warm speedup (cold wall / warm wall): %.2fx\n\n",
              warm_speedup);

  // Exactness: wherever both searches proved optimality the incumbent
  // objectives must be identical (node-limited searches may legitimately
  // stop on different incumbents).
  bool objectives_match = true;
  int compared = 0;
  for (int i = 0; i < instances; ++i) {
    if (!cold.proved[i] || !warm.proved[i]) continue;
    ++compared;
    if (std::abs(cold.objective[i] - warm.objective[i]) > 1e-6) {
      objectives_match = false;
      std::fprintf(stderr,
                   "ERROR: instance %d objective mismatch (%.12g vs %.12g)\n",
                   i, cold.objective[i], warm.objective[i]);
    }
  }
  std::printf("  exactness: %d/%d instances proved optimal by both modes, "
              "objectives %s\n\n",
              compared, instances, objectives_match ? "identical" : "DIFFER");

  benchutil::JsonWriter jw("BENCH_solver.json");
  jw.begin_object();
  benchutil::write_run_metadata(jw);
  jw.field("bench", "solver");
  jw.field("instances", instances);
  write_totals(jw, "cold", cold);
  write_totals(jw, "warm", warm);
  jw.field("lp_iteration_reduction", iter_ratio);
  jw.field("warm_speedup", warm_speedup);
  jw.field("instances_compared", compared);
  jw.field("objectives_match", objectives_match);
  guardrail_study(jw);
  benchutil::write_telemetry(jw);
  jw.end_object();

  int rc = objectives_match ? 0 : 1;
  if (quick && warm_speedup < 1.0) {
    std::fprintf(stderr,
                 "ERROR: warm_speedup %.3f < 1.0 — warm-start re-solves are "
                 "slower than cold restarts\n",
                 warm_speedup);
    rc = 1;
  }
  return rc;
}

void BM_SimplexAssignment(benchmark::State& state) {
  int cells = static_cast<int>(state.range(0));
  int cands = static_cast<int>(state.range(1));
  lp::Problem p = make_assignment_lp(cells, cands, 42);
  lp::SimplexSolver solver;
  for (auto _ : state) {
    lp::Result r = solver.solve(p);
    benchmark::DoNotOptimize(r.objective);
  }
  state.SetLabel(std::to_string(p.num_variables()) + " vars, " +
                 std::to_string(p.num_constraints()) + " rows");
}
BENCHMARK(BM_SimplexAssignment)
    ->Args({5, 10})
    ->Args({10, 20})
    ->Args({15, 40})
    ->Unit(benchmark::kMillisecond);

/// Dual-simplex warm re-solve after a bound change vs a cold re-solve —
/// the per-node cost inside branch-and-bound.
void BM_SimplexWarmResolve(benchmark::State& state) {
  int cells = static_cast<int>(state.range(0));
  int cands = static_cast<int>(state.range(1));
  lp::Problem p = make_assignment_lp(cells, cands, 42);
  lp::IncrementalSimplex inc(p, {});
  inc.solve();
  int v = 0;
  for (auto _ : state) {
    // Alternate fixing variable v to 0 and releasing it.
    inc.set_bounds(v, 0, 0);
    lp::Result r1 = inc.solve();
    inc.set_bounds(v, 0, 1);
    lp::Result r2 = inc.solve();
    benchmark::DoNotOptimize(r1.objective + r2.objective);
    v = (v + 1) % p.num_variables();
  }
  state.SetLabel("warm solves " + std::to_string(inc.warm_solves()) +
                 ", cold " + std::to_string(inc.cold_solves()));
}
BENCHMARK(BM_SimplexWarmResolve)
    ->Args({5, 10})
    ->Args({10, 20})
    ->Args({15, 40})
    ->Unit(benchmark::kMillisecond);

void BM_BranchAndBoundKnapsack(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool warm = state.range(1) != 0;
  Rng rng(7);
  milp::Model m;
  std::vector<std::pair<int, double>> cap;
  for (int i = 0; i < n; ++i) {
    int x = m.add_binary(-(1.0 + static_cast<double>(rng.uniform(20))));
    cap.emplace_back(x, 1.0 + static_cast<double>(rng.uniform(8)));
  }
  m.add_constraint(cap, lp::Sense::kLe, 2.5 * n);
  milp::BranchAndBound::Options opts;
  opts.max_nodes = 5000;
  opts.use_warm_start = warm;
  milp::BranchAndBound bnb(opts);
  long iters = 0;
  for (auto _ : state) {
    milp::MipResult r = bnb.solve(m);
    benchmark::DoNotOptimize(r.objective);
    iters = r.lp_iterations;
  }
  state.SetLabel(std::string(warm ? "warm" : "cold") + ", " +
                 std::to_string(iters) + " lp iters/solve");
}
BENCHMARK(BM_BranchAndBoundKnapsack)
    ->Args({12, 0})
    ->Args({12, 1})
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({28, 0})
    ->Args({28, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::print_run_header("bench_solver");
  // VM1_BENCH_QUICK: CI perf-smoke mode — a smaller study that asserts
  // warm_speedup >= 1.0 and skips the microbenchmark suite.
  const char* quick_env = std::getenv("VM1_BENCH_QUICK");
  const bool quick = quick_env && *quick_env && *quick_env != '0';
  int rc = warm_cold_study(quick ? 12 : 40, quick);
  if (quick) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
