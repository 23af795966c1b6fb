/// \file window_solve.h
/// One window's build → warm-start → branch-and-bound → rounding-fallback
/// pipeline, factored out of dist_opt's parallel phase so every DistOpt
/// backend runs the byte-identical solve path:
///
///   * threads backend: called inside ThreadPool jobs (core/dist_opt.cpp);
///   * processes backend: called by the worker executable on its design
///     replica (dist/worker.cpp), and by the coordinator as the local
///     fallback when a worker crashes/hangs/corrupts its reply.
///
/// The function never mutates the design: accepted solutions come back as
/// explicit per-cell placements (BuiltMilp::chosen_placements), and the
/// caller's serial apply phase commits them — which is what makes the
/// threads-vs-processes bit-identity guarantee checkable rather than
/// hopeful. Fault sites fire on the job's deterministic window key, so
/// injected schedules are identical no matter where the window solves.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "core/milp_builder.h"

namespace vm1 {

/// Inputs of one window solve, fully prepared by the caller: `mip` is the
/// pass's solver limits (DistOptOptions::mip), so the solve itself is a
/// pure function of this struct + the design + the fault config.
struct WindowSolveJob {
  int widx = -1;            ///< window index within the pass (telemetry)
  std::uint64_t key = 0;    ///< deterministic window key (fault seeding)
  Window window;
  std::vector<int> movable; ///< movable instance ids in the window
  int lx = 4;
  int ly = 1;
  bool allow_move = true;
  bool allow_flip = true;
  bool rounding_fallback = true;
  VM1Params params;
  milp::BranchAndBound::Options mip;
};

/// Everything the apply phase needs to classify and commit the window,
/// and nothing tied to the solving process's address space — this struct
/// is what dist/wire.{h,cpp} ships back over the socket.
struct WindowSolveResult {
  bool failed = false;      ///< build/solve threw; see `error`
  std::string error;
  int faults = 0;           ///< injected-fault firings observed
  bool empty_build = false; ///< window produced no MILP (nothing movable)
  std::vector<int> cells;   ///< BuiltMilp::cells (== job.movable)
  bool has_solution = false; ///< branch-and-bound returned a solution
  bool usable = false;       ///< MILP result passed validation
  bool has_fallback = false; ///< rounding fallback produced a solution
  /// Chosen placement per entry of `cells` for the accepted solution (the
  /// MILP optimum when `usable`, else the rounded root LP when
  /// `has_fallback`); empty otherwise.
  std::vector<Placement> placements;
  double warm_obj = 0;      ///< objective of the warm-start (identity)
  double objective = 0;     ///< branch-and-bound incumbent objective
  // Solver effort counters, folded into DistOptStats by the apply phase.
  long nodes = 0;
  long lp_iterations = 0;
  long dual_pivots = 0;
  long warm_solves = 0;
  long cold_restarts = 0;
  long rc_fixed = 0;
};

/// Solves one window against `d` (read-only). `cancel` is observed by the
/// branch-and-bound between nodes; pass nullptr when uncancellable (the
/// worker process — the coordinator cancels it with a deadline + SIGKILL
/// instead). Exceptions are captured into `failed`/`error`, never thrown.
WindowSolveResult solve_window(const Design& d, const WindowSolveJob& job,
                               const std::atomic<bool>* cancel);

/// Shared acceptance predicate: a solver answer is applied only when it is
/// a full, finite, non-degrading solution — anything else (kNoSolution,
/// truncated vector, NaN objective from a numerically sick LP) drops to
/// the fallback cascade.
bool usable_result(const milp::MipResult& r, const milp::Model& model,
                   double warm_obj);

}  // namespace vm1
