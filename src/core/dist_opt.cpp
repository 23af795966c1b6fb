#include "core/dist_opt.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/greedy_aligner.h"
#include "core/incremental.h"
#include "core/window.h"
#include "core/window_audit.h"
#include "core/window_solve.h"
#include "dist/coordinator.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace vm1 {

const char* to_string(WindowOutcome o) {
  switch (o) {
    case WindowOutcome::kSolved:
      return "solved";
    case WindowOutcome::kFallbackRounding:
      return "fallback_rounding";
    case WindowOutcome::kFallbackGreedy:
      return "fallback_greedy";
    case WindowOutcome::kRejectedAudit:
      return "rejected_audit";
    case WindowOutcome::kKept:
      return "kept";
    case WindowOutcome::kFaulted:
      return "faulted";
    case WindowOutcome::kSkipped:
      return "skipped";
    case WindowOutcome::kCachedRemote:
      return "cached_remote";
  }
  return "?";
}

void DistOptOptions::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("DistOptOptions: " + what);
  };
  if (bw <= 0 || bh <= 0) {
    bad("window size bw/bh must be positive, got " + std::to_string(bw) +
        "x" + std::to_string(bh));
  }
  if (lx < 0 || ly < 0) {
    bad("displacement bounds lx/ly must be >= 0, got " + std::to_string(lx) +
        "/" + std::to_string(ly));
  }
  if (!incremental && inc != nullptr) {
    bad("inc state given but incremental mode is disabled");
  }
  if (backend == DistBackend::kProcesses && coordinator == nullptr) {
    bad("processes backend requires a coordinator");
  }
  if (backend == DistBackend::kThreads && coordinator != nullptr) {
    bad("coordinator given but backend is threads");
  }
  if (fleet_token != 0 && coordinator == nullptr) {
    bad("fleet_token given but no coordinator to lease");
  }
  if (throttle != nullptr && fleet_token == 0) {
    bad("throttle given without a fleet_token");
  }
  mip.validate();
}

namespace {

/// Registry counter for each outcome bucket, e.g. "dist_opt.outcome.solved".
/// The registry is cumulative across passes; DistOptStats stays the per-pass
/// view.
obs::Counter& outcome_counter(WindowOutcome o) {
  static obs::Counter* by_outcome[] = {
      &obs::counter("dist_opt.outcome.solved"),
      &obs::counter("dist_opt.outcome.fallback_rounding"),
      &obs::counter("dist_opt.outcome.fallback_greedy"),
      &obs::counter("dist_opt.outcome.rejected_audit"),
      &obs::counter("dist_opt.outcome.kept"),
      &obs::counter("dist_opt.outcome.faulted"),
      &obs::counter("dist_opt.outcome.skipped"),
      &obs::counter("dist_opt.outcome.cached_remote"),
  };
  return *by_outcome[static_cast<int>(o)];
}

struct Job {
  WindowSolveJob in;         ///< prepared inputs (core/window_solve.h)
  WindowSolveResult out;     ///< filled by whichever backend solved it
  bool ran = false;          ///< prepare invoked (pool cancel can skip it)
  bool skipped = false;      ///< saw cancellation before solving
  // Incremental engine: signature computed in the parallel phase; on a
  // clean memo hit the entry is copied here (the table may rehash later)
  // and build/solve are skipped entirely.
  WindowSig sig;
  bool sig_valid = false;
  bool memo_hit = false;
  /// memo_hit came from the tier-2 CacheBackend, not the run-local table:
  /// classified kCachedRemote and promoted to tier 1.
  bool from_cache = false;
  WindowMemo memo;
};

}  // namespace

DistOptStats dist_opt(Design& d, const DistOptOptions& opts,
                      ThreadPool* pool) {
  opts.validate();
  Timer timer;
  DistOptStats stats;
  const bool fault_on = fault::config().enabled();
  dist::Coordinator* coord =
      opts.backend == DistBackend::kProcesses ? opts.coordinator : nullptr;

  obs::ObsSpan pass_span("dist_opt.pass");
  pass_span.arg("bw", opts.bw).arg("bh", opts.bh);
  pass_span.arg("backend", coord ? "processes" : "threads");
  static obs::Counter& passes_metric = obs::counter("dist_opt.passes");
  static obs::Histogram& pass_sec_metric = obs::histogram("dist_opt.pass_sec");
  static obs::Histogram& window_solve_sec_metric =
      obs::histogram("dist_opt.window_solve_sec");
  static obs::Gauge& objective_metric = obs::gauge("dist_opt.objective");
  static obs::Counter& sig_hits_metric =
      obs::counter("dist_opt.signature_hits");
  static obs::Counter& sig_misses_metric =
      obs::counter("dist_opt.signature_misses");
  passes_metric.add();
  obs::ScopedTimer pass_timer(pass_sec_metric);

  // Incremental engine (see core/incremental.h). The state is owned by the
  // caller (vm1opt or a test) so memo entries and dirty generations persist
  // across passes; without one this pass degenerates to full re-solve.
  // The processes backend needs the signature inputs regardless: every
  // request carries the canonical window signature as a replica-consistency
  // check. The fixed-site masks come from one scan over the design and stay
  // exact through this pass's apply phases (see window_fixed_masks).
  IncrementalState* inc = opts.incremental ? opts.inc : nullptr;
  WindowGrid grid;
  std::vector<std::vector<int>> batches;
  std::vector<std::vector<int>> incident_nets;
  std::vector<SiteMask> fixed_masks;
  {
    obs::ObsSpan setup_span("dist_opt.setup");
    grid = partition_windows(d, opts.tx, opts.ty, opts.bw, opts.bh);
    batches = diagonal_batches(grid);
    if (inc || coord) {
      incident_nets = window_incident_nets(grid, d.netlist());
      fixed_masks = window_fixed_masks(grid, d);
    }
    if (inc) inc->bind(d);
  }
  // The incremental state persists across passes; report this pass's
  // eviction delta, not the lifetime total.
  const long memo_evictions_base = inc ? inc->memo_evictions() : 0;
  // Fleet-shared mode (src/svc): the coordinator is multiplexed between
  // jobs, so the pass-level begin_pass/end_pass certification is replaced
  // by per-batch leasing inside the throttle gate — calling it here would
  // race with another job's batch, and its O(design) digest per batch
  // would dominate small batches anyway.
  const bool fleet = coord && opts.fleet_token != 0;
  if (coord && !fleet) coord->begin_pass(d);

  // Pass-level cancellation token: set once an external opts.cancel is
  // seen, and observed by every window's branch-and-bound.
  std::atomic<bool> cancelled{false};

  long total_jobs = 0;
  for (const std::vector<int>& m : grid.movable) {
    if (!m.empty()) ++total_jobs;
  }
  pass_span.arg("windows", total_jobs);
  obs::ProgressReporter progress("dist_opt", total_jobs);

  for (const std::vector<int>& batch : batches) {
    int windows = 0;
    for (int widx : batch) windows += grid.movable[widx].empty() ? 0 : 1;
    if (windows == 0) continue;  // nothing to solve, sync, or account

    // Fleet gate: from first dispatch through sync and stats collection
    // the shared coordinator belongs to this job. acquire() blocks until
    // the fair-share scheduler grants the slot; lease() rebinds replicas
    // when another job ran since our last batch.
    struct Gate {
      BatchThrottle* t = nullptr;
      ~Gate() {
        if (t) t->release();
      }
    } gate;
    if (fleet) {
      if (opts.throttle) {
        opts.throttle->acquire(windows);
        gate.t = opts.throttle;
      }
      coord->lease(opts.fleet_token);
    }

    // The processes backend prepares the whole batch serially under one
    // span: the window jobs, their signatures and their memo and cache
    // probes. The threads backend prepares each window inside its
    // dist_opt.window_solve span instead.
    std::optional<obs::ObsSpan> prepare_span;
    if (coord) {
      prepare_span.emplace("dist_opt.prepare");
      prepare_span->arg("windows", windows);
    }
    std::vector<std::unique_ptr<Job>> jobs;
    for (int widx : batch) {
      if (grid.movable[widx].empty()) continue;
      auto job = std::make_unique<Job>();
      const Window& w = grid.windows[widx];
      job->in.widx = widx;
      job->in.key = fault::mix(
          fault::mix(fault::mix(static_cast<std::uint64_t>(w.x0),
                                static_cast<std::uint64_t>(w.row0)),
                     static_cast<std::uint64_t>(w.x1)),
          (static_cast<std::uint64_t>(w.row1) << 2) |
              (opts.allow_move ? 2u : 0u) | (opts.allow_flip ? 1u : 0u));
      job->in.window = w;
      job->in.movable = grid.movable[widx];
      job->in.lx = opts.lx;
      job->in.ly = opts.ly;
      job->in.allow_move = opts.allow_move;
      job->in.allow_flip = opts.allow_flip;
      job->in.rounding_fallback = opts.rounding_fallback;
      job->in.params = opts.params;
      job->in.mip = opts.mip;
      jobs.push_back(std::move(job));
    }

    // Shared per-window preparation: cancellation check and memo probe —
    // everything that must happen before the solve, identical for both
    // backends. Returns false when the window is already settled (skipped
    // or memo hit).
    auto prepare = [&](Job& job) -> bool {
      job.ran = true;
      if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
        cancelled.store(true, std::memory_order_relaxed);
      }
      if (cancelled.load(std::memory_order_relaxed)) {
        job.skipped = true;
        progress.advance();
        return false;
      }
      if (inc || coord) {
        // Parallel-phase signature: the design and the incremental state
        // are both read-only until the serial apply phase, so signature
        // computation and the table lookup are race-free. A memo hit needs
        // a full 128-bit signature match AND untouched cells/nets since
        // the entry was recorded. The processes backend computes the
        // signature even without an incremental state: it rides along in
        // the request so the worker can prove its replica agrees.
        job.sig = window_signature(d, grid.windows[job.in.widx],
                                   job.in.movable, grid.owner, job.in.widx,
                                   incident_nets[job.in.widx],
                                   fixed_masks[job.in.widx], opts);
        job.sig_valid = true;
        if (inc) {
          if (const WindowMemo* m = inc->lookup(job.sig)) {
            if (inc->clean_since(job.in.movable, incident_nets[job.in.widx],
                                 m->recorded_gen)) {
              job.memo_hit = true;
              job.memo = *m;
              progress.advance();
              return false;
            }
          }
          // Tier-2 probe (persistent solve cache). Trusted on the full
          // 128-bit signature alone: backend entries outlive the run, so
          // run-local generation stamps say nothing about them — the
          // signature covers every solve input, which IS the cleanliness
          // proof. The backend is thread-safe; everything else here is
          // read-only until the serial apply phase.
          if (CacheBackend* cb = inc->backend()) {
            if (std::optional<WindowMemo> m = cb->lookup(job.sig)) {
              job.memo_hit = true;
              job.from_cache = true;
              job.memo = std::move(*m);
              progress.advance();
              return false;
            }
          }
        }
      }
      return true;
    };

    if (coord) {
      // Processes backend: prepare serially (cheap — signatures and memo
      // probes), then hand the whole batch to the coordinator, which
      // dispatches to workers with retry-once-then-local-fallback. Every
      // job's `out` is filled on return.
      std::vector<dist::RemoteJob> remote;
      for (const auto& job : jobs) {
        if (!prepare(*job)) continue;
        dist::RemoteJob rj;
        rj.job = &job->in;
        rj.result = &job->out;
        rj.expected_sig = job->sig;
        rj.greedy_fallback = opts.greedy_fallback;
        remote.push_back(rj);
      }
      prepare_span.reset();
      if (!remote.empty()) {
        coord->solve_batch(d, remote, &cancelled);
        progress.advance(static_cast<long>(remote.size()));
      }
    } else {
      // Threads backend: windows in a batch touch disjoint cells and the
      // design is read-only until the apply phase below, so MILP
      // construction, warm-start extraction, branch-and-bound, and the
      // rounding fallback all run inside the pool job. Fault sites are
      // keyed by the window, not the worker, so schedules are
      // thread-invariant.
      auto run_one = [&](std::size_t j) {
        Job& job = *jobs[j];
        obs::ObsSpan solve_span("dist_opt.window_solve");
        solve_span.arg("window", job.in.widx);
        obs::ScopedTimer solve_timer(window_solve_sec_metric);
        if (!prepare(job)) {
          if (job.memo_hit) solve_span.arg("window_skip", 1);
          return;
        }
        job.out = solve_window(d, job.in, &cancelled);
        if (!job.out.empty_build) {
          solve_span.arg("cells", job.out.cells.size());
        }
        progress.advance();
      };
      if (pool && jobs.size() > 1) {
        pool->parallel_for(jobs.size(), run_one, &cancelled);
      } else {
        for (std::size_t j = 0; j < jobs.size(); ++j) run_one(j);
      }
    }

    // Placement deltas committed by this batch, broadcast to the worker
    // replicas afterwards (processes backend only).
    std::vector<std::pair<int, Placement>> batch_changed;

    // Apply phase (serial): windows in a batch touch disjoint cells. Every
    // job is classified into exactly one WindowOutcome bucket here. This is
    // also the only phase that mutates the incremental state: changed cells
    // stamp dirty generations, and finished windows are memoized under the
    // signature probed above.
    for (const auto& job : jobs) {
      obs::ObsSpan apply_span("dist_opt.window_apply");
      apply_span.arg("window", job->in.widx);
      auto classify = [&](WindowOutcome o) {
        outcome_counter(o).add();
        apply_span.arg("outcome", to_string(o));
      };
      stats.faults_injected += job->out.faults;
      if (inc && job->sig_valid && !job->memo_hit) {
        ++stats.signature_misses;
        sig_misses_metric.add();
      }

      // Counts the placement delta (both modes, so vm1opt's zero-change
      // early exit is mode-independent), stamps dirty generations, and
      // memoizes the outcome when it is a pure function of the signature.
      // Genuine (non-injected) failures never enter the table: they may
      // not reproduce.
      auto commit = [&](WindowOutcome o, double obj_delta,
                        std::vector<std::pair<int, Placement>> changed,
                        bool empty_build, bool memoizable) {
        stats.cells_changed += static_cast<int>(changed.size());
        if (coord) {
          batch_changed.insert(batch_changed.end(), changed.begin(),
                               changed.end());
        }
        if (!inc) return;
        if (!changed.empty()) {
          std::vector<int> insts;
          insts.reserve(changed.size());
          for (const auto& cp : changed) insts.push_back(cp.first);
          inc->mark_changed(insts, d.netlist());
        }
        if (!job->sig_valid || job->memo_hit || !memoizable) return;
        WindowMemo m;
        m.sig2 = job->sig.b;  // collision guard; persisted, unlike gen
        m.recorded_gen = inc->generation();
        m.outcome = o;
        m.empty_build = empty_build;
        m.obj_delta = obj_delta;
        m.changed = std::move(changed);
        // Write-through to the persistent tier under the same guard: only
        // signature-pure results ever reach the backend.
        if (CacheBackend* cb = inc->backend()) {
          cb->store(job->sig, m);
          ++stats.cache_stores;
        }
        inc->store(job->sig, std::move(m));
      };

      if (job->out.failed) {
        ++stats.windows;
        ++stats.faulted;
        classify(WindowOutcome::kFaulted);
        log_warn("dist_opt: window ", job->in.widx,
                 " faulted during build/solve: ", job->out.error);
        commit(WindowOutcome::kFaulted, 0, {}, false,
               /*memoizable=*/job->out.faults > 0);
        continue;
      }
      if (!job->ran || job->skipped) {
        // Cancelled before solving. Never memoized: where the cutoff lands
        // is wall-clock-dependent.
        ++stats.windows;
        ++stats.kept;
        classify(WindowOutcome::kKept);
        continue;
      }
      if (job->memo_hit) {
        // Replay the recorded delta. No audit re-run: the entry was
        // recorded from an audited (or no-op) application of the very same
        // signed inputs, so this is the state a full re-solve would reach.
        if (job->from_cache) {
          ++stats.cache_hits;
        } else {
          ++stats.signature_hits;
          sig_hits_metric.add();
        }
        // Promote a tier-2 hit into the run-local table so later passes
        // take the cheap tier-1 path. Stamped with the current generation
        // (matching commit(): the entry describes the state this apply
        // phase establishes).
        auto promote = [&] {
          if (!job->from_cache) return;
          WindowMemo m = job->memo;
          m.recorded_gen = inc->generation();
          inc->store(job->sig, std::move(m));
        };
        if (job->memo.empty_build) {
          // Matches the uncounted "empty build" case below.
          apply_span.arg("outcome", "empty");
          apply_span.arg("window_skip", 1);
          promote();
          continue;
        }
        ++stats.windows;
        if (job->from_cache) {
          ++stats.cached_remote;
          classify(WindowOutcome::kCachedRemote);
        } else {
          ++stats.skipped;
          classify(WindowOutcome::kSkipped);
        }
        stats.cells_changed += static_cast<int>(job->memo.changed.size());
        if (coord) {
          batch_changed.insert(batch_changed.end(), job->memo.changed.begin(),
                               job->memo.changed.end());
        }
        if (!job->memo.changed.empty()) {
          std::vector<int> insts;
          insts.reserve(job->memo.changed.size());
          for (const auto& [inst, pl] : job->memo.changed) {
            d.set_placement(inst, pl);
            insts.push_back(inst);
          }
          inc->mark_changed(insts, d.netlist());
        }
        promote();
        continue;
      }
      if (job->out.empty_build) {
        apply_span.arg("outcome", "empty");
        commit(WindowOutcome::kKept, 0, {}, /*empty_build=*/true,
               /*memoizable=*/true);
        continue;
      }
      ++stats.windows;
      stats.total_nodes += job->out.nodes;
      stats.total_lp_iters += job->out.lp_iterations;
      stats.dual_pivots += job->out.dual_pivots;
      stats.warm_solves += job->out.warm_solves;
      stats.cold_restarts += job->out.cold_restarts;
      stats.rc_fixed += job->out.rc_fixed;
      if (job->out.has_solution) ++stats.windows_solved;

      const std::vector<Placement>* sol = nullptr;
      bool rounding = false;
      if (job->out.usable) {
        sol = &job->out.placements;
      } else if (job->out.has_fallback) {
        sol = &job->out.placements;
        rounding = true;
      }

      // Snapshot for rollback and for the post-apply placement diff that
      // feeds cells_changed / dirty marking / the memo entry.
      std::vector<Placement> before;
      before.reserve(job->out.cells.size());
      for (int inst : job->out.cells) before.push_back(d.placement(inst));
      WindowOutcome outcome = WindowOutcome::kKept;
      double obj_delta = 0;
      bool memoizable = true;

      if (sol) {
        // Apply and audit; roll back on violation or exception so a bad
        // window can never leak an illegal or degraded placement.
        auto rollback = [&] {
          for (std::size_t k = 0; k < job->out.cells.size(); ++k) {
            d.set_placement(job->out.cells[k], before[k]);
          }
        };
        try {
          for (std::size_t k = 0; k < job->out.cells.size(); ++k) {
            d.set_placement(job->out.cells[k], (*sol)[k]);
          }
          if (fault_on &&
              fault::should_fire(fault::Site::kApplyThrow, job->in.key)) {
            ++stats.faults_injected;
            throw fault::InjectedFault("injected fault: apply_throw");
          }
          WindowAuditResult audit = audit_window_placement(
              d, grid.windows[job->in.widx], job->out.cells, before, opts.lx,
              opts.ly, opts.allow_move, opts.allow_flip);
          if (!audit.ok) {
            rollback();
            ++stats.rejected_audit;
            outcome = WindowOutcome::kRejectedAudit;
            classify(outcome);
            log_warn("dist_opt: window ", job->in.widx,
                     " solution rejected by audit: ", audit.violation);
          } else if (rounding) {
            ++stats.fallback_rounding;
            outcome = WindowOutcome::kFallbackRounding;
            classify(outcome);
          } else {
            ++stats.solved;
            outcome = WindowOutcome::kSolved;
            classify(outcome);
            obj_delta = job->out.warm_obj - job->out.objective;
            if (job->out.objective < job->out.warm_obj - 1e-9) {
              ++stats.windows_improved;
            }
          }
        } catch (const std::exception& e) {
          rollback();
          ++stats.faulted;
          outcome = WindowOutcome::kFaulted;
          classify(outcome);
          // Injected apply faults are replayable (the schedule is part of
          // the signature); anything else is not provably deterministic.
          memoizable = dynamic_cast<const fault::InjectedFault*>(&e) !=
                       nullptr;
          log_warn("dist_opt: window ", job->in.widx,
                   " faulted during apply, rolled back: ", e.what());
        }
      } else if (opts.greedy_fallback) {
        // Last resort before keep-current: single-cell greedy moves inside
        // the window, each legality-preserving and objective-improving.
        obs::ObsSpan greedy_span("dist_opt.fallback_greedy");
        greedy_span.arg("window", job->in.widx);
        GreedyAlignOptions go;
        go.params = opts.params;
        go.lx = opts.lx;
        go.ly = opts.ly;
        go.allow_flip = opts.allow_flip;
        go.max_passes = 1;
        GreedyAlignStats gs =
            greedy_align_window(d, grid.windows[job->in.widx],
                                job->out.cells, go, opts.allow_move);
        if (gs.moves + gs.flips > 0) {
          ++stats.fallback_greedy;
          outcome = WindowOutcome::kFallbackGreedy;
        } else {
          ++stats.kept;
          outcome = WindowOutcome::kKept;
        }
        classify(outcome);
      } else {
        ++stats.kept;
        outcome = WindowOutcome::kKept;
        classify(outcome);
      }

      std::vector<std::pair<int, Placement>> changed;
      for (std::size_t k = 0; k < job->out.cells.size(); ++k) {
        const Placement& now = d.placement(job->out.cells[k]);
        if (!(now == before[k])) {
          changed.emplace_back(job->out.cells[k], now);
        }
      }
      commit(outcome, obj_delta, std::move(changed), false, memoizable);
    }

    if (coord) coord->sync(batch_changed);
    // A shared coordinator's counters are only this job's inside the gate.
    if (fleet) stats.remote += coord->take_stats();
  }

  if (coord && !fleet) {
    coord->end_pass(d);
    stats.remote = coord->take_stats();
  }

  if (inc) {
    static obs::Counter& memo_evict_metric =
        obs::counter("dist_opt.memo_evictions");
    stats.memo_evictions = inc->memo_evictions() - memo_evictions_base;
    memo_evict_metric.add(stats.memo_evictions);
  }

  {
    obs::ObsSpan objective_span("dist_opt.objective");
    stats.objective = evaluate_objective(d, opts.params);
  }
  stats.seconds = timer.seconds();
  objective_metric.set(stats.objective.value);
  return stats;
}

}  // namespace vm1
