/// \file dist_opt.h
/// DistOpt (Algorithm 2): distributable window-based optimization.
///
/// Partitions the layout into (bw x bh) windows offset by (tx, ty), walks
/// the ~sqrt(|W|) diagonal batches, and inside each batch builds and solves
/// every window's MILP in parallel (both phases run in one pool job per
/// window: windows in a batch are disjoint and the design is read-only
/// until the serial apply phase). Each window's branch-and-bound is
/// warm-started with the current placement, so a window's local objective
/// never degrades.
///
/// Every window outcome is classified (WindowOutcome) and guarded — see
/// DESIGN.md "Window-solve guardrails": solver results are validated and
/// audited before being applied, failed windows degrade through a fallback
/// cascade (MILP -> standalone LP rounding -> window-scoped greedy -> keep
/// current), and an optional external cancellation token stops the pass at
/// the next window boundary, classifying the windows it never started kKept.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/milp_builder.h"
#include "dist/coordinator_stats.h"
#include "milp/branch_and_bound.h"
#include "util/thread_pool.h"

namespace vm1 {

namespace dist {
class Coordinator;  // dist/coordinator.h
}

/// Terminal classification of one window in a DistOpt pass. Every window
/// with at least one movable cell lands in exactly one bucket, so the
/// outcome counters in DistOptStats always sum to `windows` — a pass can
/// degrade, but never lose track of a window.
enum class WindowOutcome {
  kSolved,            ///< MILP solution validated, audited, applied
  kFallbackRounding,  ///< MILP failed; rounded root-LP solution applied
  kFallbackGreedy,    ///< MILP+rounding failed; greedy moves applied
  kRejectedAudit,     ///< solution failed the legality audit; rolled back
  kKept,              ///< nothing applied (no fallback fired, or cancelled)
  kFaulted,           ///< build/solve/apply threw; window left untouched
  kSkipped,           ///< clean signature hit; memoized result replayed
  kCachedRemote,      ///< replayed from the tier-2 CacheBackend (no MILP)
};

const char* to_string(WindowOutcome o);

/// Where a batch's window solves execute. Both backends share the window
/// preparation, the serial apply phase, and the incremental memoization,
/// and run the byte-identical solve path (core/window_solve.h) — results
/// are bit-identical; only the execution substrate differs.
enum class DistBackend {
  kThreads,    ///< ThreadPool jobs in this process (the default)
  kProcesses,  ///< worker processes via a dist::Coordinator (src/dist)
};

/// Transport underneath the processes backend (see dist/transport.h):
/// fork/exec'd socketpair children, or TCP workers attaching to the
/// coordinator's listener after the nonce/HMAC handshake (dist/tcp.h).
enum class DistTransport {
  kSocketpair,  ///< single-host fork/exec (the default)
  kTcp,         ///< TCP listener; loopback self-spawn or remote attach
};

class IncrementalState;  // core/incremental.h

/// Fleet-sharing gate for the placement service (src/svc). When a
/// DistOptOptions carries a throttle, the pass brackets every window batch
/// with acquire(windows)/release(): acquire blocks until the scheduler
/// grants this job the shared coordinator (weighted deficit round-robin
/// across tenants), and the gate spans dispatch through sync + stats
/// collection so no two jobs ever touch the non-thread-safe Coordinator
/// concurrently. `windows` is the batch's job count — the cost the
/// fair-share scheduler charges against the tenant's deficit.
class BatchThrottle {
 public:
  virtual ~BatchThrottle() = default;
  virtual void acquire(int windows) = 0;
  virtual void release() = 0;
};

struct DistOptOptions {
  int bw = 20;  ///< window width in sites
  int bh = 3;   ///< window height in rows
  int tx = 0;   ///< horizontal window offset (sites)
  int ty = 0;   ///< vertical window offset (rows)
  int lx = 4;   ///< max x displacement (sites)
  int ly = 1;   ///< max row displacement
  bool allow_move = true;  ///< f=0 pass: perturb positions
  bool allow_flip = true;  ///< f=1 pass: flip orientations
  VM1Params params;
  /// Solver limits of every window in the pass (each window's
  /// WindowSolveJob::mip is exactly this).
  milp::BranchAndBound::Options mip;
  /// Fallback cascade kill switches (both on in production; tests disable
  /// one to pin down the other's behaviour).
  bool rounding_fallback = true;
  bool greedy_fallback = true;
  /// Optional external cancellation token: set it from another thread to
  /// stop the pass at the next window boundary; windows not yet started
  /// are classified kKept.
  const std::atomic<bool>* cancel = nullptr;
  /// Incremental re-solve engine (see core/incremental.h). When `inc` is
  /// non-null and `incremental` is true, windows whose canonical signature
  /// matches a memo entry recorded while their cells/nets stayed clean are
  /// skipped (classified kSkipped) and the recorded placement delta is
  /// replayed — bit-identical to re-solving. With `incremental` false the
  /// pass must not carry a state (validate() rejects it), so equivalence
  /// tests can run both modes against each other. `inc` must outlive the
  /// pass and be bound to the same design.
  bool incremental = true;
  IncrementalState* inc = nullptr;
  /// Execution backend. kProcesses requires `coordinator` (owned by the
  /// caller, reused across passes so workers and their design replicas
  /// persist); `pool` is ignored in that mode — the parallelism is the
  /// worker processes, and fork safety forbids pool threads anyway.
  DistBackend backend = DistBackend::kThreads;
  dist::Coordinator* coordinator = nullptr;
  /// Fleet sharing (src/svc): when `fleet_token` is nonzero the coordinator
  /// is shared between jobs. The pass then (a) brackets each batch with
  /// `throttle` acquire/release if one is given, (b) re-leases the
  /// coordinator under its token at every batch (cheap when consecutive),
  /// and (c) skips the pass-level begin_pass/end_pass certification — the
  /// lease protocol replaces it, and calling into a shared coordinator
  /// outside the gate would race. Zero (the default) is the exclusive
  /// single-job mode with unchanged behaviour.
  std::uint64_t fleet_token = 0;
  BatchThrottle* throttle = nullptr;

  /// Throws std::invalid_argument on out-of-range fields (non-positive
  /// bw/bh, negative lx/ly, invalid `mip`, backend/coordinator
  /// mismatch). dist_opt() validates on entry.
  void validate() const;
};

struct DistOptStats {
  int windows = 0;          ///< windows with at least one movable cell
  int windows_solved = 0;   ///< windows whose MILP produced a solution
  int windows_improved = 0; ///< windows whose solution changed placements
  long total_nodes = 0;     ///< branch-and-bound nodes across windows
  long total_lp_iters = 0;  ///< simplex pivots across windows (primal + dual)
  // Warm-start observability, aggregated over window B&B solves
  // (see DESIGN.md "LP/MILP solver internals").
  long dual_pivots = 0;     ///< pivots spent in dual re-optimization
  long warm_solves = 0;     ///< node LPs served from a parent basis
  long cold_restarts = 0;   ///< node LPs that rebuilt the tableau (phase 1)
  long rc_fixed = 0;        ///< binaries fixed by root reduced costs
  // Guardrail outcome taxonomy: one bucket per window, summing to
  // `windows` (see WindowOutcome / DESIGN.md "Window-solve guardrails").
  int solved = 0;            ///< kSolved (includes identity solutions)
  int fallback_rounding = 0; ///< kFallbackRounding
  int fallback_greedy = 0;   ///< kFallbackGreedy
  int rejected_audit = 0;    ///< kRejectedAudit (rolled back)
  int kept = 0;              ///< kKept
  int faulted = 0;           ///< kFaulted (exception; window untouched)
  int skipped = 0;           ///< kSkipped (memoized replay; no MILP built)
  int cached_remote = 0;     ///< kCachedRemote (CacheBackend replay)
  long faults_injected = 0;  ///< fault-injection firings observed (VM1_FAULTS)
  // Incremental-engine observability (zero when no IncrementalState given).
  long signature_hits = 0;   ///< memo lookups that skipped a window
  long signature_misses = 0; ///< memo lookups that had to solve
  // Solve-cache observability (zero when no CacheBackend is attached).
  long cache_hits = 0;       ///< tier-2 backend hits replayed without solving
  long cache_stores = 0;     ///< memoized solves written through to tier 2
  long memo_evictions = 0;   ///< tier-1 memo entries evicted (capacity)
  /// Cells whose placement changed in this pass. Counted in both modes
  /// (replays included), so vm1opt's zero-change early exit is
  /// mode-independent.
  int cells_changed = 0;
  /// This pass's distributed-backend transport counters (all zero for the
  /// threads backend).
  dist::CoordinatorStats remote;
  ObjectiveBreakdown objective;  ///< full-design objective after this pass
  double seconds = 0;

  /// Sum of the outcome buckets; always equals `windows`.
  int outcome_total() const {
    return solved + fallback_rounding + fallback_greedy + rejected_audit +
           kept + faulted + skipped + cached_remote;
  }
};

/// Runs one DistOpt pass over the whole design. `pool` may be null
/// (sequential solving). Throws std::invalid_argument on invalid options.
DistOptStats dist_opt(Design& d, const DistOptOptions& opts,
                      ThreadPool* pool);

}  // namespace vm1
