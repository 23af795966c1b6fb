#include "milp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace vm1::milp {

const char* to_string(MipStatus s) {
  switch (s) {
    case MipStatus::kOptimal:
      return "optimal";
    case MipStatus::kFeasible:
      return "feasible";
    case MipStatus::kInfeasible:
      return "infeasible";
    case MipStatus::kNoSolution:
      return "no-solution";
  }
  return "?";
}

namespace {

struct BoundFix {
  int var;
  double lo;
  double hi;

  bool operator==(const BoundFix& o) const {
    return var == o.var && lo == o.lo && hi == o.hi;
  }
};

struct Node {
  std::vector<BoundFix> fixes;  ///< full path of branching decisions
  double parent_bound;          ///< LP bound inherited from the parent
};

/// One applied branching decision plus the bounds it overwrote, so the
/// search can unwind to any ancestor by popping in LIFO order.
struct Applied {
  BoundFix fix;
  double prev_lo;
  double prev_hi;
};

}  // namespace

void BranchAndBound::Options::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("BranchAndBound::Options: " + what);
  };
  // max_nodes == 0 is valid anytime usage: explore nothing, return the
  // warm-start/heuristic incumbent.
  if (max_nodes < 0) {
    bad("max_nodes must be >= 0, got " + std::to_string(max_nodes));
  }
  if (!(time_limit_sec >= 0)) {
    bad("time_limit_sec must be >= 0 (and not NaN), got " +
        std::to_string(time_limit_sec));
  }
  if (!(int_tol >= 0) || !(gap_tol >= 0)) {
    bad("int_tol/gap_tol must be >= 0 (and not NaN), got " +
        std::to_string(int_tol) + " / " + std::to_string(gap_tol));
  }
  if (lp_options.max_iterations <= 0) {
    bad("lp_options.max_iterations must be positive, got " +
        std::to_string(lp_options.max_iterations));
  }
  // 0 is the LP's "unlimited"; a NaN would silently disable the check.
  if (!(lp_options.time_limit_sec >= 0)) {
    bad("lp_options.time_limit_sec must be >= 0 (and not NaN), got " +
        std::to_string(lp_options.time_limit_sec));
  }
  // A NaN tolerance makes every pricing comparison false (the root LP
  // reports a bogus optimum after 0 pivots); a non-positive one makes
  // round-off look like an improving column forever.
  if (!(std::isfinite(lp_options.tol) && lp_options.tol > 0)) {
    bad("lp_options.tol must be finite and > 0, got " +
        std::to_string(lp_options.tol));
  }
  if (!(std::isfinite(lp_options.pivot_tol) && lp_options.pivot_tol > 0)) {
    bad("lp_options.pivot_tol must be finite and > 0, got " +
        std::to_string(lp_options.pivot_tol));
  }
}

MipResult BranchAndBound::solve(const Model& model,
                                const RoundingHeuristic& heuristic,
                                const std::vector<double>* warm_start) const {
  opts_.validate();
  MipResult result;
  Timer timer;
  obs::ObsSpan solve_span("milp.solve");

  // The incremental solver owns the working bounds and the LP engine's
  // solve workspace, so the whole dive shares one factorization and one set
  // of scratch buffers. Switching nodes applies only the bound deltas
  // between the two fix paths, and the dual simplex re-optimizes from the
  // parent basis.
  lp::IncrementalSimplex lp(model.lp(), opts_.lp_options);
  const auto& int_vars = model.integer_variables();
  std::vector<double> snap;  // integral-solution scratch, reused per node

  const double inf = std::numeric_limits<double>::infinity();
  double incumbent_obj = inf;
  std::vector<double> incumbent_x;
  bool truncated = false;

  // Candidate incumbents (warm starts, heuristic solutions, rounded node
  // LPs) are untrusted: a NaN/inf coordinate or objective from a numerically
  // sick source must read as "no solution", never poison the incumbent —
  // NaN compares false everywhere, so an unchecked NaN objective would make
  // the bound pruning silently wrong.
  auto try_incumbent = [&](const std::vector<double>& x) {
    if (x.size() != static_cast<std::size_t>(model.num_variables())) return;
    for (double v : x) {
      if (!std::isfinite(v)) return;
    }
    if (!model.is_feasible(x, 1e-5)) return;
    double obj = model.objective_value(x);
    if (!std::isfinite(obj)) return;
    if (obj < incumbent_obj - opts_.gap_tol) {
      incumbent_obj = obj;
      incumbent_x = x;
      obs::trace_instant("milp.incumbent", "objective", obj);
    }
  };

  if (warm_start) try_incumbent(*warm_start);

  // Branching decisions currently applied to `lp`, root-to-leaf.
  std::vector<Applied> applied;
  auto apply_path = [&](const std::vector<BoundFix>& fixes) {
    std::size_t keep = 0;
    while (keep < applied.size() && keep < fixes.size() &&
           applied[keep].fix == fixes[keep]) {
      ++keep;
    }
    while (applied.size() > keep) {
      const Applied& a = applied.back();
      lp.set_bounds(a.fix.var, a.prev_lo, a.prev_hi);
      applied.pop_back();
    }
    for (std::size_t i = keep; i < fixes.size(); ++i) {
      const BoundFix& f = fixes[i];
      applied.push_back({f, lp.problem().lower_bound(f.var),
                         lp.problem().upper_bound(f.var)});
      lp.set_bounds(f.var, f.lo, f.hi);
    }
  };

  std::vector<Node> stack;
  stack.push_back(Node{{}, -inf});
  bool root_fixing_pending = opts_.use_warm_start;

  while (!stack.empty()) {
    if (result.nodes_explored >= opts_.max_nodes ||
        timer.seconds() > opts_.time_limit_sec ||
        (opts_.cancel && opts_.cancel->load(std::memory_order_relaxed))) {
      truncated = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    if (node.parent_bound >= incumbent_obj - opts_.gap_tol) continue;
    ++result.nodes_explored;

    apply_path(node.fixes);
    if (!opts_.use_warm_start) lp.invalidate();

    lp::Result rel = lp.solve();
    result.lp_iterations += rel.iterations;
    result.dual_pivots += rel.dual_iterations;
    if (rel.warm_start_used) {
      ++result.warm_solves;
    } else {
      ++result.cold_restarts;
    }
    if (rel.status == lp::Status::kInfeasible) continue;
    if (rel.status == lp::Status::kIterLimit) {
      truncated = true;
      continue;
    }
    if (rel.status == lp::Status::kUnbounded) {
      // A bounded MILP relaxation cannot be unbounded unless the model has
      // unbounded continuous vars; treat as truncation.
      truncated = true;
      continue;
    }
    if (!std::isfinite(rel.objective)) {
      // Numerically sick relaxation: pruning against a NaN/inf bound is
      // meaningless, so abandon the node as a truncation instead of
      // propagating garbage into the search.
      truncated = true;
      continue;
    }
    if (rel.objective >= incumbent_obj - opts_.gap_tol) continue;

    // Find the fractional integer variable with (priority, fractionality)
    // lexicographically highest.
    int branch_var = -1;
    double branch_val = 0;
    double best_frac_dist = opts_.int_tol;
    int best_priority = std::numeric_limits<int>::min();
    for (int v : int_vars) {
      double f = rel.x[v] - std::floor(rel.x[v]);
      double dist = std::min(f, 1.0 - f);
      if (dist <= opts_.int_tol) continue;
      int prio = model.branch_priority(v);
      if (prio > best_priority ||
          (prio == best_priority && dist > best_frac_dist)) {
        best_priority = prio;
        best_frac_dist = dist;
        branch_var = v;
        branch_val = rel.x[v];
      }
    }

    if (branch_var < 0) {
      // Integral LP solution: snap and accept.
      snap = rel.x;
      for (int v : int_vars) snap[v] = std::round(snap[v]);
      try_incumbent(snap);
      continue;
    }

    if (heuristic) {
      if (auto hx = heuristic(model, rel.x)) try_incumbent(*hx);
    }

    // Reduced-cost fixing at the root: an integer variable sitting on a
    // bound whose reduced cost alone pushes the LP bound past the incumbent
    // can never move in an improving solution, so its bounds collapse for
    // the entire search. Any solution it would exclude has objective
    // >= root bound + |rc| > incumbent - gap_tol, which try_incumbent
    // rejects anyway — the search result is unchanged, just cheaper.
    if (root_fixing_pending && node.fixes.empty() &&
        std::isfinite(incumbent_obj) && !rel.reduced_cost.empty()) {
      root_fixing_pending = false;
      for (int v : int_vars) {
        double lo = lp.problem().lower_bound(v);
        double hi = lp.problem().upper_bound(v);
        if (lo >= hi) continue;  // already fixed
        double rc = rel.reduced_cost[v];
        if (rel.x[v] <= lo + opts_.int_tol && rc > 0 &&
            rel.objective + rc > incumbent_obj - opts_.gap_tol) {
          lp.set_bounds(v, lo, lo);
          ++result.rc_fixed;
        } else if (std::isfinite(hi) && rel.x[v] >= hi - opts_.int_tol &&
                   rc < 0 &&
                   rel.objective - rc > incumbent_obj - opts_.gap_tol) {
          lp.set_bounds(v, hi, hi);
          ++result.rc_fixed;
        }
      }
    }

    // Branch: floor child and ceil child. Push the child whose bound value is
    // farther from the LP value first so the nearer one is explored first
    // (DFS dive toward the relaxation).
    double fl = std::floor(branch_val);
    Node down{node.fixes, rel.objective};
    down.fixes.push_back(
        {branch_var, lp.problem().lower_bound(branch_var), fl});
    Node up{std::move(node.fixes), rel.objective};
    up.fixes.push_back(
        {branch_var, fl + 1, lp.problem().upper_bound(branch_var)});
    bool down_first = (branch_val - fl) < 0.5;
    if (down_first) {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    } else {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    }
  }

  // Final bound: min over unexplored nodes and the incumbent.
  double open_bound = incumbent_obj;
  for (const Node& n : stack) open_bound = std::min(open_bound, n.parent_bound);

  if (!incumbent_x.empty()) {
    result.x = std::move(incumbent_x);
    result.objective = incumbent_obj;
    result.best_bound = truncated || !stack.empty() ? open_bound : incumbent_obj;
    result.status = (truncated || !stack.empty()) ? MipStatus::kFeasible
                                                  : MipStatus::kOptimal;
  } else {
    result.status = truncated ? MipStatus::kNoSolution : MipStatus::kInfeasible;
    result.best_bound = open_bound;
  }

  // Bulk-add the per-solve totals once; hot loops above stay metric-free.
  static obs::Counter& solves_metric = obs::counter("milp.solves");
  static obs::Counter& nodes_metric = obs::counter("milp.nodes");
  static obs::Counter& lp_iters_metric = obs::counter("milp.lp_iterations");
  static obs::Counter& warm_metric = obs::counter("milp.warm_solves");
  static obs::Counter& cold_metric = obs::counter("milp.cold_restarts");
  static obs::Counter& rc_fixed_metric = obs::counter("milp.rc_fixed");
  static obs::Counter& incumbents_metric = obs::counter("milp.incumbents");
  // One counter per MipStatus, in enum order; they sum to milp.solves.
  static obs::Counter* status_metric[] = {
      &obs::counter("milp.status.optimal"),
      &obs::counter("milp.status.feasible"),
      &obs::counter("milp.status.infeasible"),
      &obs::counter("milp.status.no_solution"),
  };
  solves_metric.add();
  status_metric[static_cast<int>(result.status)]->add();
  nodes_metric.add(result.nodes_explored);
  lp_iters_metric.add(result.lp_iterations);
  warm_metric.add(result.warm_solves);
  cold_metric.add(result.cold_restarts);
  rc_fixed_metric.add(result.rc_fixed);
  if (!result.x.empty()) incumbents_metric.add();
  solve_span.arg("nodes", result.nodes_explored)
      .arg("status", to_string(result.status));
  return result;
}

}  // namespace vm1::milp
