/// \file branch_and_bound.h
/// Branch-and-bound MILP solver over the bounded-variable simplex.
///
/// Features used by the window optimizer:
///  * most-fractional branching on integer variables;
///  * depth-first dives (child closer to the LP value first) with global
///    best-bound pruning;
///  * warm-started node LPs: the search keeps one hot simplex basis
///    (lp::IncrementalSimplex), applies only the bound *deltas* between
///    consecutive nodes, and re-optimizes with the dual simplex — phase 1
///    runs only at the root and on rare numerical cold restarts. This is
///    the CPLEX-style basis reuse between branch-and-bound nodes that the
///    paper's runtime story (ExptA) relies on;
///  * reduced-cost fixing of integer variables from the root LP;
///  * optional user rounding heuristic to seed/improve the incumbent
///    (the window optimizer supplies "pick the best candidate per cell and
///    repair legality");
///  * node- and wall-time limits for anytime behaviour — the paper's
///    runtime/quality trade-off study (ExptA) depends on this.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "milp/model.h"

namespace vm1::milp {

enum class MipStatus {
  kOptimal,       ///< proven optimal incumbent
  kFeasible,      ///< incumbent found, search truncated by a limit
  kInfeasible,    ///< proven infeasible
  kNoSolution,    ///< search truncated before any incumbent was found
};

const char* to_string(MipStatus s);

struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  double objective = 0;
  double best_bound = 0;  ///< global lower bound on the optimum
  std::vector<double> x;
  int nodes_explored = 0;
  int lp_iterations = 0;  ///< total simplex pivots (primal + dual)
  // Warm-start observability (see DESIGN.md "LP/MILP solver internals").
  int dual_pivots = 0;    ///< pivots spent in dual re-optimization
  int warm_solves = 0;    ///< node LPs solved from the parent basis
  int cold_restarts = 0;  ///< node LPs needing a full phase-1 rebuild
  int rc_fixed = 0;       ///< integer vars fixed by root reduced costs
};

/// Given a (fractional) LP solution, returns a feasible integer solution if
/// the heuristic can construct one.
using RoundingHeuristic =
    std::function<std::optional<std::vector<double>>(const Model&,
                                                     const std::vector<double>&)>;

class BranchAndBound {
 public:
  struct Options {
    int max_nodes = 20000;
    double time_limit_sec = 30.0;
    double int_tol = 1e-6;
    double gap_tol = 1e-9;  ///< absolute objective gap for pruning
    /// Reuse the parent basis across nodes (dual-simplex re-optimization
    /// + reduced-cost fixing). Off reproduces the historical cold-start
    /// behaviour; results are identical either way, only the pivot counts
    /// differ — the solver tests assert exactly that.
    bool use_warm_start = true;
    /// Optional cooperative cancellation: when non-null and set, the search
    /// stops at the next node boundary and returns the best incumbent so
    /// far (status kFeasible/kNoSolution, as for a time limit). The pointee
    /// must outlive the solve; DistOpt points every window's solve at its
    /// pass-level token so an external cancel cuts a whole batch off
    /// cleanly.
    const std::atomic<bool>* cancel = nullptr;
    lp::SimplexSolver::Options lp_options = {};

    /// Throws std::invalid_argument naming the field when one is out of
    /// range: negative max_nodes, a negative or NaN time limit (MIP or LP),
    /// negative or NaN int_tol / gap_tol, non-positive
    /// lp_options.max_iterations, or a non-finite or non-positive
    /// lp_options.tol / pivot_tol. solve() validates on entry so
    /// misconfiguration fails fast instead of looping forever or
    /// mis-pruning; the placement service validates at admission.
    void validate() const;
  };

  BranchAndBound() : opts_() {}
  explicit BranchAndBound(const Options& opts) : opts_(opts) {}

  /// Solves `model` (minimization). `heuristic` may be null. `warm_start`,
  /// when given and feasible, seeds the incumbent — the window optimizer
  /// passes the current placement so the result can never be worse than
  /// the input.
  MipResult solve(const Model& model,
                  const RoundingHeuristic& heuristic = nullptr,
                  const std::vector<double>* warm_start = nullptr) const;

 private:
  Options opts_;
};

}  // namespace vm1::milp
