/// \file vm1opt.h
/// VM1Opt (Algorithm 1): the metaheuristic outer loop of the vertical-M1
/// routing-aware detailed placement optimization.
///
/// For each parameter set u = (bw, bh, lx, ly) in the sequence U, iterate:
///   1. DistOpt with moves enabled, flips disabled (f = 0);
///   2. DistOpt with flips enabled, moves disabled (f = 1, lx = ly = 0);
///   3. shift the window offsets (tx, ty) so boundary cells that straddled
///      windows become movable next iteration;
/// until the normalized objective improvement falls below theta (1%).
#pragma once

#include "core/dist_opt.h"

namespace vm1 {

class CacheBackend;  // core/incremental.h

/// One entry of the input parameter-set queue U.
struct ParamSet {
  int bw = 20;  ///< window width (sites) — also sets bh when bh == 0
  int bh = 0;   ///< window height in rows (0 = derive as max(2, 3*bw/20))
  int lx = 4;
  int ly = 1;

  int rows() const { return bh > 0 ? bh : std::max(2, 3 * bw / 20); }
};

struct VM1OptOptions {
  VM1Params params;
  std::vector<ParamSet> sequence = {ParamSet{20, 0, 4, 1}};
  double theta = 0.01;      ///< convergence threshold (paper: 1%)
  int max_inner_iters = 4;  ///< safety bound per parameter set
  bool flip_pass = true;    ///< run the f=1 DistOpt of Algorithm 1
  /// Shift window offsets (tx, ty) between iterations so boundary cells
  /// become movable (Algorithm 1 line 9). Disable only for ablations.
  bool shift_windows = true;
  /// Dirty-window incremental re-solve (see core/incremental.h): one
  /// IncrementalState is shared by every DistOpt pass of the run, so a
  /// window whose signature recurs while its cells/nets stayed clean is
  /// skipped and its memoized result replayed — bit-identical to full
  /// re-solve. Disable to force every window through the MILP (equivalence
  /// tests run both modes against each other).
  bool incremental = true;
  unsigned threads = 0;     ///< 0 = hardware concurrency
  /// Execution backend for every DistOpt pass (see core/dist_opt.h).
  /// kProcesses solves windows in `dist_workers` worker processes via one
  /// dist::Coordinator owned for the whole run — workers and their design
  /// replicas persist across passes — and creates no ThreadPool at all
  /// (fork safety). Results are bit-identical to kThreads.
  DistBackend backend = DistBackend::kThreads;
  int dist_workers = 2;
  /// Worker executable for the processes backend; empty uses $VM1_WORKER,
  /// then the build-baked default (apps/vm1_worker).
  std::string dist_worker_path;
  /// Transport underneath the processes backend. kTcp listens on
  /// dist_tcp_host:dist_tcp_port (0 = ephemeral) and either self-spawns
  /// loopback workers (`vm1_worker --connect`) or, with an empty worker
  /// path resolution, waits for remote peers; the auth secret comes from
  /// `dist_secret`, falling back to $VM1_DIST_SECRET.
  DistTransport dist_transport = DistTransport::kSocketpair;
  std::string dist_tcp_host = "127.0.0.1";
  int dist_tcp_port = 0;
  std::string dist_secret;
  /// Borrowed coordinator (src/svc fleet sharing): when non-null and the
  /// backend is kProcesses, the run uses this caller-owned coordinator
  /// instead of building its own, leasing it per batch under `fleet_token`
  /// (a fresh token is generated when 0) and gating each batch through
  /// `throttle` if one is given. The transport/worker knobs above are
  /// ignored — the fleet is whatever the owner built. Results remain
  /// bit-identical to an exclusive run.
  dist::Coordinator* coordinator = nullptr;
  std::uint64_t fleet_token = 0;
  BatchThrottle* throttle = nullptr;
  /// Tier-2 solve cache (src/cache): when non-null (and `incremental` is
  /// on, since the backend hangs off the run's IncrementalState), window
  /// memos are written through to it and probed on tier-1 misses — a
  /// persistent CacheStore makes whole re-runs skip their solves. The
  /// backend must outlive the run and be thread-safe.
  CacheBackend* cache = nullptr;
  milp::BranchAndBound::Options mip = default_mip();
  /// Optional external cancellation token, checked between windows and
  /// between passes; the optimizer stops cleanly with coherent stats.
  const std::atomic<bool>* cancel = nullptr;

  static milp::BranchAndBound::Options default_mip() {
    milp::BranchAndBound::Options o;
    o.max_nodes = 60;
    o.time_limit_sec = 1.5;
    // Window objectives are quantized in ~0.02 steps (beta * integer HPWL
    // plus alpha multiples); proving optimality tighter than that only
    // burns nodes.
    o.gap_tol = 0.02;
    // One runaway LP (huge windows in the Figure-5 sweep) must not stall a
    // whole batch: truncate and fall back to the incumbent.
    o.lp_options.time_limit_sec = 0.75;
    return o;
  }
};

struct VM1OptStats {
  ObjectiveBreakdown initial;
  ObjectiveBreakdown final;
  int outer_iterations = 0;  ///< total DistOpt pairs executed
  int windows = 0;
  long milp_nodes = 0;
  // Window-outcome taxonomy aggregated over every DistOpt pass (see
  // WindowOutcome); the eight buckets sum to `windows`.
  long solved = 0;
  long fallback_rounding = 0;
  long fallback_greedy = 0;
  long rejected_audit = 0;
  long kept = 0;
  long faulted = 0;
  long skipped = 0;          ///< kSkipped: memoized replays (no MILP built)
  long cached_remote = 0;    ///< kCachedRemote: CacheBackend replays
  long faults_injected = 0;  ///< VM1_FAULTS firings observed across passes
  // Incremental-engine observability, aggregated over every pass.
  long signature_hits = 0;
  long signature_misses = 0;
  long cells_changed = 0;
  // Solve-cache observability (zero without VM1OptOptions::cache).
  long cache_hits = 0;       ///< tier-2 hits replayed without solving
  long cache_stores = 0;     ///< memoized solves written through to tier 2
  long memo_evictions = 0;   ///< tier-1 memo entries evicted (capacity)
  /// Distributed-backend transport counters summed over every pass (all
  /// zero for the threads backend).
  dist::CoordinatorStats remote;
  /// True when a parameter set's inner loop exited because a full
  /// move+flip iteration changed zero cells (sweep-level early
  /// termination), rather than via theta or max_inner_iters.
  bool converged_early = false;
  /// Per outer iteration (one move+flip pair): windows visited / skipped.
  /// Lets benches report the skip rate after the first sweep.
  std::vector<int> windows_per_iter;
  std::vector<int> skipped_per_iter;
  double seconds = 0;
  std::vector<double> objective_trajectory;
};

/// Runs the full optimization on the design in place.
VM1OptStats vm1opt(Design& d, const VM1OptOptions& opts);

}  // namespace vm1
