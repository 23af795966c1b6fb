#include "core/vm1opt.h"

#include <cmath>
#include <optional>

#include "core/incremental.h"
#include "dist/coordinator.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vm1 {

VM1OptStats vm1opt(Design& d, const VM1OptOptions& opts) {
  Timer timer;
  VM1OptStats stats;
  stats.initial = evaluate_objective(d, opts.params);
  stats.objective_trajectory.push_back(stats.initial.value);

  obs::ObsSpan run_span("vm1opt.run");
  run_span.arg("sequence", opts.sequence.size())
      .arg("initial", stats.initial.value);
  static obs::Gauge& objective_metric = obs::gauge("vm1opt.objective");
  objective_metric.set(stats.initial.value);
  // Total iteration count is data-dependent (convergence test), so the
  // reporter runs in open-ended mode and carries the objective instead.
  obs::ProgressReporter progress("vm1opt");
  progress.update_objective(stats.initial.value);

  // Exactly one execution substrate exists per run: the processes backend
  // must not create pool threads (the coordinator forks workers, and a
  // multi-threaded parent makes fork hostile territory — TSan rejects it
  // outright), and the threads backend needs no worker processes.
  std::optional<ThreadPool> pool;
  std::optional<dist::Coordinator> coord;
  dist::Coordinator* run_coord = nullptr;
  std::uint64_t fleet_token = 0;
  if (opts.backend == DistBackend::kProcesses) {
    if (opts.coordinator) {
      // Borrowed fleet (src/svc): the caller owns the coordinator and
      // shares it between jobs, so every batch runs under a lease. A token
      // of 0 would mean "exclusive" to dist_opt; synthesize a unique one.
      run_coord = opts.coordinator;
      fleet_token = opts.fleet_token;
      if (fleet_token == 0) {
        static std::atomic<std::uint64_t> next_token{1};
        fleet_token = next_token.fetch_add(1, std::memory_order_relaxed);
      }
      run_span.arg("backend", "processes-shared");
    } else {
      dist::CoordinatorOptions co;
      co.num_workers = opts.dist_workers;
      co.worker_path = opts.dist_worker_path;
      co.transport = opts.dist_transport == DistTransport::kTcp
                         ? dist::TransportKind::kTcp
                         : dist::TransportKind::kSocketpair;
      co.tcp_host = opts.dist_tcp_host;
      co.tcp_port = opts.dist_tcp_port;
      co.secret = opts.dist_secret;
      coord.emplace(co);
      run_coord = &*coord;
      run_span.arg("backend", "processes");
      run_span.arg("transport", opts.dist_transport == DistTransport::kTcp
                                    ? "tcp"
                                    : "socketpair");
    }
  } else {
    pool.emplace(opts.threads);
  }
  int tx = 0, ty = 0;
  double obj = stats.initial.value;
  // Every pass evaluates the objective of the design it leaves, and nothing
  // moves a cell after the last pass: its evaluation is the final one.
  stats.final = stats.initial;

  // One incremental state for the whole run: memo entries recorded in one
  // pass are hit in later iterations whenever the window grid repeats
  // (shift period 2) and the window's neighborhood stayed clean.
  IncrementalState inc_state;
  if (opts.incremental) {
    inc_state.bind(d);
    // Tier-2 solve cache (src/cache): memo write-through + probe-on-miss.
    // Requires the incremental engine — the backend hangs off its memo.
    inc_state.set_backend(opts.cache);
  }

  auto accumulate = [&stats](const DistOptStats& s) {
    stats.windows += s.windows;
    stats.milp_nodes += s.total_nodes;
    stats.solved += s.solved;
    stats.fallback_rounding += s.fallback_rounding;
    stats.fallback_greedy += s.fallback_greedy;
    stats.rejected_audit += s.rejected_audit;
    stats.kept += s.kept;
    stats.faulted += s.faulted;
    stats.skipped += s.skipped;
    stats.cached_remote += s.cached_remote;
    stats.faults_injected += s.faults_injected;
    stats.signature_hits += s.signature_hits;
    stats.signature_misses += s.signature_misses;
    stats.cells_changed += s.cells_changed;
    stats.cache_hits += s.cache_hits;
    stats.cache_stores += s.cache_stores;
    stats.memo_evictions += s.memo_evictions;
    stats.remote += s.remote;
  };
  auto cancelled = [&opts] {
    return opts.cancel && opts.cancel->load(std::memory_order_relaxed);
  };

  for (const ParamSet& u : opts.sequence) {
    double delta_obj = std::numeric_limits<double>::infinity();
    int inner = 0;
    while (delta_obj >= opts.theta && inner < opts.max_inner_iters &&
           !cancelled()) {
      double pre_obj = obj;
      obs::ObsSpan iter_span("vm1opt.iteration");
      iter_span.arg("bw", u.bw).arg("iter", inner);

      DistOptOptions move_pass;
      move_pass.bw = u.bw;
      move_pass.bh = u.rows();
      move_pass.tx = tx;
      move_pass.ty = ty;
      move_pass.lx = u.lx;
      move_pass.ly = u.ly;
      move_pass.allow_move = true;
      move_pass.allow_flip = false;
      move_pass.params = opts.params;
      move_pass.mip = opts.mip;
      move_pass.cancel = opts.cancel;
      move_pass.incremental = opts.incremental;
      move_pass.inc = opts.incremental ? &inc_state : nullptr;
      move_pass.backend = opts.backend;
      move_pass.coordinator = run_coord;
      move_pass.fleet_token = fleet_token;
      move_pass.throttle = opts.throttle;
      DistOptStats ms = dist_opt(d, move_pass, pool ? &*pool : nullptr);
      accumulate(ms);
      stats.final = ms.objective;
      obj = ms.objective.value;
      int iter_windows = ms.windows;
      // "Skipped" for the per-iteration skip-rate report means "no MILP
      // ran", whichever cache tier served the window.
      int iter_skipped = ms.skipped + ms.cached_remote;
      int iter_changed = ms.cells_changed;

      if (opts.flip_pass && !cancelled()) {
        DistOptOptions flip_pass = move_pass;
        flip_pass.lx = 0;
        flip_pass.ly = 0;
        flip_pass.allow_move = false;
        flip_pass.allow_flip = true;
        DistOptStats fs = dist_opt(d, flip_pass, pool ? &*pool : nullptr);
        accumulate(fs);
        stats.final = fs.objective;
        obj = fs.objective.value;
        iter_windows += fs.windows;
        iter_skipped += fs.skipped + fs.cached_remote;
        iter_changed += fs.cells_changed;
      }
      stats.windows_per_iter.push_back(iter_windows);
      stats.skipped_per_iter.push_back(iter_skipped);

      // Shift windows so last iteration's boundary cells become movable.
      if (opts.shift_windows) {
        tx += u.bw / 2;
        ty += std::max(1, u.rows() / 2);
      }

      ++stats.outer_iterations;
      ++inner;
      stats.objective_trajectory.push_back(obj);
      objective_metric.set(obj);
      progress.update_objective(obj);
      progress.advance();
      iter_span.arg("objective", obj);
      delta_obj = (pre_obj - obj) / std::max(1.0, std::abs(pre_obj));
      log_debug("vm1opt: u=(", u.bw, ",", u.lx, ",", u.ly, ") iter ", inner,
                " obj ", pre_obj, " -> ", obj);
      // Sweep-level early termination: a full move+flip iteration that
      // changed zero cells is a fixpoint of this parameter set — further
      // iterations would dirty nothing and re-derive the same placements,
      // so short-circuit the theta loop. cells_changed is counted
      // identically with and without the incremental engine (replays
      // included), so both modes exit here on the same iteration.
      if (iter_changed == 0) {
        stats.converged_early = true;
        break;
      }
    }
  }

  stats.seconds = timer.seconds();
  objective_metric.set(stats.final.value);
  run_span.arg("final", stats.final.value);
  return stats;
}

}  // namespace vm1
