// Threads-vs-processes backend comparison for the distributed window-solve
// service (src/dist): the fig5 operating point (aes, ClosedM1, U={(20,4,1)})
// run once per backend configuration — in-process thread pool vs 1/2/4/8
// worker subprocesses over the dist/wire.h protocol.
//
// Reported per configuration: wall-clock, the serialize/deserialize overhead
// the wire adds (sums of the dist.serialize_sec / dist.deserialize_sec
// histograms), RPC round-trip p50/p95 (dist.rpc_sec), request/retry counts,
// and bytes moved. Metrics are reset between configurations so every row's
// telemetry covers exactly one run. Results land in BENCH_dist.json.
//
// Both backends produce bit-identical placements (enforced here on the
// objective, and exhaustively by tests/test_dist_backend_equiv.cpp), so the
// comparison is purely about time: the speedup column is processes wall
// over the threads baseline. On a single-core host every configuration
// serializes onto one CPU and the wire is pure overhead; multi-worker
// speedups need real cores.
#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "core/vm1opt.h"
#include "route/router.h"
#include "util/logging.h"

using namespace vm1;
using namespace vm1::benchutil;

namespace {

const obs::HistogramSnapshot* find_hist(const obs::MetricsSnapshot& snap,
                                        const char* name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

long find_counter(const obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// VM1_BENCH_QUICK: CI perf-smoke mode. Runs only the threads baseline and
/// the 2-worker socketpair backend, min-of-3 each (min-of-N is the standard
/// noise-robust wall-clock estimator), and asserts the socketpair backend is
/// unregressed: wall within +5% of the threads baseline doing identical
/// node-limited arithmetic, bit-identical objective, and a completely silent
/// supervision layer (no retries, fallbacks, or restarts on a healthy
/// loopback fleet). On a host with >= 2 hardware threads the budget is the
/// headline +5%; on a 1-core host every backend serializes onto one CPU, the
/// wire is irreducible extra work, and scheduler noise alone spans ~15%, so
/// the gate only guards against gross regression there. Overridable via
/// VM1_BENCH_DIST_BUDGET (fractional overhead) for noisy shared runners.
int quick_smoke(double scale) {
  double budget = std::thread::hardware_concurrency() >= 2 ? 0.05 : 0.35;
  if (const char* b = std::getenv("VM1_BENCH_DIST_BUDGET")) {
    budget = std::atof(b);
  }
  FlowOptions base = paper_flow("aes", CellArch::kClosedM1, 1200, scale);
  Design d0 = prepare_design(base, nullptr);
  std::vector<Placement> snap0 = d0.placements();

  auto run_once = [&](DistBackend backend, int workers, VM1OptStats* out) {
    Design d = design_from_snapshot(base, snap0);
    VM1OptOptions o = base.vm1;
    o.backend = backend;
    o.dist_workers = workers;
    o.mip.time_limit_sec = 3600;
    o.mip.lp_options.time_limit_sec = 0;
    Timer timer;
    *out = vm1opt(d, o);
    return timer.seconds();
  };

  // Paired per-rep ratios: each rep times the two backends back to back and
  // the gate takes the best ratio, so slow drift of the host (frequency
  // scaling, noisy neighbours) cancels instead of poisoning one side.
  const int kReps = 3;
  double threads_wall = 1e300, proc_wall = 1e300, ratio = 1e300;
  VM1OptStats ts, ps;
  for (int r = 0; r < kReps; ++r) {
    double tw = run_once(DistBackend::kThreads, 0, &ts);
    double pw = run_once(DistBackend::kProcesses, 2, &ps);
    threads_wall = std::min(threads_wall, tw);
    proc_wall = std::min(proc_wall, pw);
    ratio = std::min(ratio, pw / tw);
  }
  std::printf("quick: threads %.2fs, socketpair(proc-2) %.2fs, "
              "overhead %+.1f%% (budget +%.0f%%)\n",
              threads_wall, proc_wall, (ratio - 1.0) * 100.0,
              budget * 100.0);
  int rc = 0;
  if (ps.final.value != ts.final.value) {
    std::fprintf(stderr, "FAIL: objective %.17g != threads %.17g\n",
                 ps.final.value, ts.final.value);
    rc = 1;
  }
  if (ps.remote.retries != 0 || ps.remote.local_fallbacks != 0 ||
      ps.remote.worker_restarts != 0) {
    std::fprintf(stderr,
                 "FAIL: supervision not silent on a healthy fleet "
                 "(retries %ld, fallbacks %ld, restarts %ld)\n",
                 ps.remote.retries, ps.remote.local_fallbacks,
                 ps.remote.worker_restarts);
    rc = 1;
  }
  if (ratio > 1.0 + budget) {
    std::fprintf(stderr,
                 "FAIL: socketpair backend regressed: %.2fs vs threads "
                 "%.2fs (+%.1f%% > +%.0f%% budget)\n",
                 proc_wall, threads_wall, (ratio - 1.0) * 100.0,
                 budget * 100.0);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main() {
  print_run_header("bench_dist");
  double scale = env_scale(0.25);
  const char* quick_env = std::getenv("VM1_BENCH_QUICK");
  if (quick_env && *quick_env && *quick_env != '0') {
    return quick_smoke(scale);
  }
  std::printf("Distributed backend comparison (aes, ClosedM1, scale=%.2f)\n\n",
              scale);

  FlowOptions base = paper_flow("aes", CellArch::kClosedM1, 1200, scale);
  double place_s = 0;
  Design d0 = prepare_design(base, &place_s);
  std::vector<Placement> snap0 = d0.placements();

  struct Config {
    const char* name;
    DistBackend backend;
    int workers;
  };
  const Config configs[] = {
      {"threads", DistBackend::kThreads, 0},
      {"proc-1", DistBackend::kProcesses, 1},
      {"proc-2", DistBackend::kProcesses, 2},
      {"proc-4", DistBackend::kProcesses, 4},
      {"proc-8", DistBackend::kProcesses, 8},
  };

  Table t({"backend", "wall_s", "speedup", "objective", "rpc", "retry",
           "ser_ms", "deser_ms", "rpc_p50_ms", "rpc_p95_ms", "MB_tx"});

  JsonWriter jw("BENCH_dist.json");
  jw.begin_object();
  write_run_metadata(jw);
  jw.field("bench", "dist");
  jw.field("design", base.design_name);
  jw.field("scale", scale);
  jw.begin_array("rows");

  double threads_wall = 0;
  double threads_objective = 0;
  for (const Config& c : configs) {
    obs::reset_metrics();
    Design d = design_from_snapshot(base, snap0);
    VM1OptOptions o = base.vm1;
    o.backend = c.backend;
    o.dist_workers = c.workers;
    // Deterministic truncation only (node limit binds, wall-clock never):
    // the default 1.5s/window limit would make each row solve different
    // windows differently, turning the comparison into noise. With node
    // limits every row does identical arithmetic and wall-clock measures
    // exactly the scheduling + wire overhead.
    o.mip.time_limit_sec = 3600;
    o.mip.lp_options.time_limit_sec = 0;
    Timer timer;
    VM1OptStats s = vm1opt(d, o);
    double wall = timer.seconds();
    obs::MetricsSnapshot m = obs::snapshot_metrics();
    const obs::HistogramSnapshot* ser = find_hist(m, "dist.serialize_sec");
    const obs::HistogramSnapshot* des = find_hist(m, "dist.deserialize_sec");
    const obs::HistogramSnapshot* rpc = find_hist(m, "dist.rpc_sec");

    if (c.backend == DistBackend::kThreads) {
      threads_wall = wall;
      threads_objective = s.final.value;
    } else if (s.remote.local_fallbacks == 0 &&
               s.final.value != threads_objective) {
      // Bit-identity check, live in Release builds (the dist test suite
      // proves the full placement vector; the bench stays self-validating).
      std::fprintf(stderr,
                   "FAIL: %s objective %.17g != threads %.17g — backends "
                   "diverged\n",
                   c.name, s.final.value, threads_objective);
      return 1;
    }

    double mb_tx = static_cast<double>(s.remote.bytes_sent) / (1024.0 * 1024.0);
    t.add_row({c.name, fmt(wall, 2), fmt(threads_wall / wall, 2),
               fmt(s.final.value, 1), fmt(s.remote.replies, 0),
               fmt(s.remote.retries, 0), fmt(ser ? ser->sum * 1e3 : 0, 1),
               fmt(des ? des->sum * 1e3 : 0, 1),
               fmt(rpc ? rpc->p50 * 1e3 : 0, 1),
               fmt(rpc ? rpc->p95 * 1e3 : 0, 1), fmt(mb_tx, 2)});

    jw.begin_object();
    jw.field("backend", c.name);
    jw.field("workers", c.workers);
    jw.field("wall_s", wall);
    jw.field("speedup_vs_threads", threads_wall / wall);
    jw.field("objective", s.final.value);
    jw.field("hpwl", s.final.hpwl);
    jw.field("windows", s.windows);
    jw.field("remote_requests", s.remote.requests);
    jw.field("remote_replies", s.remote.replies);
    jw.field("remote_retries", s.remote.retries);
    jw.field("remote_timeouts", s.remote.timeouts);
    jw.field("remote_local_fallbacks", s.remote.local_fallbacks);
    jw.field("worker_restarts", s.remote.worker_restarts);
    jw.field("wire_bytes_sent", s.remote.bytes_sent);
    jw.field("wire_bytes_received", s.remote.bytes_received);
    jw.field("serialize_sec_sum", ser ? ser->sum : 0.0);
    jw.field("deserialize_sec_sum", des ? des->sum : 0.0);
    jw.field("rpc_count", rpc ? static_cast<long>(rpc->count) : 0L);
    jw.field("rpc_p50_sec", rpc ? rpc->p50 : 0.0);
    jw.field("rpc_p95_sec", rpc ? rpc->p95 : 0.0);
    jw.field("rpc_p99_sec", rpc ? rpc->p99 : 0.0);
    jw.field("coordinator_desyncs", find_counter(m, "dist.desyncs"));
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();

  std::printf("%s", t.render().c_str());
  std::printf("\nthreads and processes rows are bit-identical placements; "
              "columns differ only in time.\nOn a 1-core host the wire is "
              "pure overhead — expect speedup < 1 for every proc row.\n");
  return 0;
}
