/// Common window-MILP construction plus the ClosedM1 (alignment)
/// pair formulation, Eq. (1)-(9) of the paper. The OpenM1 pair formulation
/// lives in milp_builder_open.cpp.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>

#include "core/milp_builder_detail.h"
#include "place/hpwl.h"
#include "timing/sta.h"

namespace vm1 {

using detail::LinExpr;
using detail::PinGeom;

namespace detail {

void add_diff_constraint(milp::Model& model, const LinExpr& a,
                         const LinExpr& b, int d_var, double coeff_d,
                         double rhs) {
  std::vector<std::pair<int, double>> terms = a.terms;
  for (const auto& [v, c] : b.terms) terms.emplace_back(v, -c);
  if (d_var >= 0) terms.emplace_back(d_var, coeff_d);
  model.add_constraint(std::move(terms), lp::Sense::kLe,
                       rhs - a.constant + b.constant);
}

PinGeom make_pin_geom(const Design& d, const BuiltMilp& built,
                      int movable_idx, int inst, int pin) {
  PinGeom g;
  const Cell& c = d.netlist().cell_of(inst);
  const Coord H = d.tech().row_height();
  if (movable_idx < 0) {
    g.movable = false;
    Point p = d.pin_position(NetPin{inst, pin});
    auto [lo, hi] = d.pin_span_abs(inst, pin);
    g.x.constant = static_cast<double>(p.x);
    g.xlo.constant = static_cast<double>(lo);
    g.xhi.constant = static_cast<double>(hi);
    g.y.constant = static_cast<double>(p.y);
    g.x_min = g.x_max = g.x.constant;
    g.xlo_min = g.xlo_max = g.xlo.constant;
    g.xhi_min = g.xhi_max = g.xhi.constant;
    g.y_min = g.y_max = g.y.constant;
    return g;
  }

  g.movable = true;
  const auto& cands = built.cands[movable_idx];
  const auto& lams = built.lambda[movable_idx];
  bool first = true;
  for (std::size_t k = 0; k < cands.size(); ++k) {
    const Candidate& cd = cands[k];
    double x = static_cast<double>(cd.x) + c.pin_x_track(pin, cd.flipped);
    auto [slo, shi] = c.pin_span(pin, cd.flipped);
    double xlo = static_cast<double>(cd.x + slo);
    double xhi = static_cast<double>(cd.x + shi);
    double y =
        static_cast<double>(cd.row) * H + static_cast<double>(c.pins[pin].y_off);
    g.x.add(lams[k], x);
    g.xlo.add(lams[k], xlo);
    g.xhi.add(lams[k], xhi);
    g.y.add(lams[k], y);
    if (first) {
      g.x_min = g.x_max = x;
      g.xlo_min = g.xlo_max = xlo;
      g.xhi_min = g.xhi_max = xhi;
      g.y_min = g.y_max = y;
      first = false;
    } else {
      g.x_min = std::min(g.x_min, x);
      g.x_max = std::max(g.x_max, x);
      g.xlo_min = std::min(g.xlo_min, xlo);
      g.xlo_max = std::max(g.xlo_max, xlo);
      g.xhi_min = std::min(g.xhi_min, xhi);
      g.xhi_max = std::max(g.xhi_max, xhi);
      g.y_min = std::min(g.y_min, y);
      g.y_max = std::max(g.y_max, y);
    }
  }
  return g;
}

namespace {

/// A pin's values along one axis in ascending order, each with the lambdas
/// of the candidates that put the pin there; a fixed pin has one value and
/// no lambda.
using ValueLambdas = std::map<double, std::vector<int>>;

ValueLambdas lambdas_by_value(const LinExpr& e) {
  ValueLambdas out;
  for (const auto& [var, v] : e.terms) out[v].push_back(var);
  if (e.terms.empty()) out[e.constant];
  return out;
}

}  // namespace

bool add_closed_pair(const WindowProblem& prob, BuiltMilp& built,
                     AlignPair& pair, const PinGeom& P, const PinGeom& Q) {
  const double H =
      static_cast<double>(prob.design->tech().row_height());
  const double y_bound = prob.params.gamma_closed * H;

  // Static pruning: x ranges must intersect and |dy| must be achievable.
  if (P.x_max < Q.x_min || Q.x_max < P.x_min) return false;
  double min_dy =
      std::max({0.0, P.y_min - Q.y_max, Q.y_min - P.y_max});
  if (min_dy > y_bound) return false;

  milp::Model& m = built.model;
  pair.d_var = m.add_binary(-prob.params.alpha, "d");
  // Branch d first: fixing it decides every alignment row of the pair.
  m.set_branch_priority(pair.d_var, 1);

  // (4), written per pin value instead of with big-M: d = 1 only if Q sits
  // wherever P does. With lambda_P(v) the sum of the lambdas of P's
  // candidates that put the pin at v, each x value v of P gets
  //   lambda_P(v) - lambda_Q(v) + d <= 1
  // and each row value v of P gets
  //   lambda_P(v) - sum_{u : |u - v| <= gamma_closed * H} lambda_Q(u) + d <= 1.
  // Unlike x_p - x_q <= G(1 - d), the rows cut off fractional lambdas that
  // only average to an aligned x. A fixed pin leads as P (lambda_P(v) is
  // then the constant 1), which leaves one row d <= lambda_Q(its value) per
  // axis. Rows in which every value of Q is compatible are dropped.
  const PinGeom& lead = Q.movable ? P : Q;
  const PinGeom& other = Q.movable ? Q : P;
  auto add_rows = [&](const LinExpr& lead_e, const LinExpr& other_e,
                      double span) {
    const ValueLambdas other_vals = lambdas_by_value(other_e);
    for (const auto& [v, lams] : lambdas_by_value(lead_e)) {
      std::vector<std::pair<int, double>> terms;
      for (int l : lams) terms.emplace_back(l, 1.0);
      std::size_t compatible = 0;
      for (const auto& [u, other_lams] : other_vals) {
        if (std::abs(u - v) > span) continue;
        ++compatible;
        for (int l : other_lams) terms.emplace_back(l, -1.0);
      }
      if (compatible == other_vals.size()) continue;
      terms.emplace_back(pair.d_var, 1.0);
      m.add_constraint(std::move(terms), lp::Sense::kLe,
                       lams.empty() ? 0.0 : 1.0);
    }
  };
  add_rows(lead.x, other.x, 0.0);
  add_rows(lead.y, other.y, y_bound);
  return true;
}

}  // namespace detail

namespace {

/// Pins of a net that sit on instances (IO terminals excluded), tagged
/// with the movable-cell index when applicable.
std::vector<PairPin> net_instance_pins(
    const Design& d, int net,
    const std::unordered_map<int, int>& inst_to_movable) {
  std::vector<PairPin> out;
  for (const NetPin& p : d.netlist().net(net).pins) {
    if (p.is_io()) continue;
    PairPin pp;
    pp.inst = p.inst;
    pp.pin = p.pin;
    auto it = inst_to_movable.find(p.inst);
    pp.movable_idx = it == inst_to_movable.end() ? -1 : it->second;
    out.push_back(pp);
  }
  return out;
}

}  // namespace

BuiltMilp build_window_milp(const WindowProblem& prob) {
  const Design& d = *prob.design;
  const Netlist& nl = d.netlist();
  const Coord H = d.tech().row_height();
  const double W = static_cast<double>(d.core().hx);
  const double Hcore = static_cast<double>(d.core().hy);

  BuiltMilp built;
  built.design_ = prob.design;
  built.params_ = prob.params;
  built.window_ = prob.window;
  built.open_arch_ = d.library().arch() == CellArch::kOpenM1;
  built.cells = prob.movable;

  auto fixed_mask = fixed_site_mask(d, prob.window, prob.movable);

  // --- SCP candidates and lambda variables (Eq. (5)-(8)) -----------------
  for (std::size_t m = 0; m < built.cells.size(); ++m) {
    int inst = built.cells[m];
    built.inst_to_movable_[inst] = static_cast<int>(m);
    built.cands.push_back(enumerate_candidates(
        d, inst, prob.window, fixed_mask, prob.lx, prob.ly, prob.allow_move,
        prob.allow_flip));
    std::vector<int> lams;
    for (std::size_t k = 0; k < built.cands.back().size(); ++k) {
      lams.push_back(built.model.add_binary(0.0, "l"));
    }
    built.lambda.push_back(std::move(lams));
    // Exactly one candidate (Eq. (5)).
    std::vector<std::pair<int, double>> row;
    for (int v : built.lambda.back()) row.emplace_back(v, 1.0);
    built.model.add_constraint(std::move(row), lp::Sense::kEq, 1.0);
  }

  // --- Site exclusivity (Eq. (9)) -----------------------------------------
  {
    const int wsites = prob.window.width();
    const int wrows = prob.window.rows();
    std::vector<std::vector<std::pair<int, double>>> site_terms(
        static_cast<std::size_t>(wsites) * wrows);
    for (std::size_t m = 0; m < built.cells.size(); ++m) {
      const int w = nl.cell_of(built.cells[m]).width_sites;
      for (std::size_t k = 0; k < built.cands[m].size(); ++k) {
        const Candidate& cd = built.cands[m][k];
        int r = cd.row - prob.window.row0;
        for (int s = cd.x; s < cd.x + w; ++s) {
          int sx = s - prob.window.x0;
          if (r < 0 || r >= wrows || sx < 0 || sx >= wsites) continue;
          site_terms[static_cast<std::size_t>(r) * wsites + sx]
              .emplace_back(built.lambda[m][k], 1.0);
        }
      }
    }
    for (auto& terms : site_terms) {
      if (terms.size() < 2) continue;
      built.model.add_constraint(std::move(terms), lp::Sense::kLe, 1.0);
    }
  }

  // --- Nets: HPWL variables and bound constraints (Eq. (2)-(3)) ----------
  std::set<int> nets;
  for (int inst : built.cells) {
    for (int n : nets_of_instance(d, inst)) nets.insert(n);
  }

  for (int net : nets) {
    const Net& n = nl.net(net);
    if (!n.routable()) continue;
    bool any_fixed = false;
    double fx_max = 0, fx_min = 0, fy_max = 0, fy_min = 0;
    struct MovPin {
      int movable_idx, inst, pin;
    };
    std::vector<MovPin> movs;
    for (const NetPin& p : n.pins) {
      int midx = -1;
      if (!p.is_io()) {
        auto it = built.inst_to_movable_.find(p.inst);
        if (it != built.inst_to_movable_.end()) midx = it->second;
      }
      if (midx >= 0) {
        movs.push_back({midx, p.inst, p.pin});
      } else {
        Point pos = d.pin_position(p);
        if (!any_fixed) {
          fx_max = fx_min = static_cast<double>(pos.x);
          fy_max = fy_min = static_cast<double>(pos.y);
          any_fixed = true;
        } else {
          fx_max = std::max(fx_max, static_cast<double>(pos.x));
          fx_min = std::min(fx_min, static_cast<double>(pos.x));
          fy_max = std::max(fy_max, static_cast<double>(pos.y));
          fy_min = std::min(fy_min, static_cast<double>(pos.y));
        }
      }
    }
    if (movs.empty()) continue;

    const double beta = prob.params.beta_of(net);
    BuiltMilp::NetVars nv;
    nv.net = net;
    nv.xmax = built.model.add_continuous(any_fixed ? fx_max : 0.0, W, beta);
    nv.xmin =
        built.model.add_continuous(0.0, any_fixed ? fx_min : W, -beta);
    nv.ymax =
        built.model.add_continuous(any_fixed ? fy_max : 0.0, Hcore, beta);
    nv.ymin =
        built.model.add_continuous(0.0, any_fixed ? fy_min : Hcore, -beta);

    for (const MovPin& mp : movs) {
      PinGeom g = detail::make_pin_geom(d, built, mp.movable_idx, mp.inst,
                                        mp.pin);
      // expr - xmax <= 0 ; xmin - expr <= 0; same for y.
      LinExpr xmax_e, xmin_e, ymax_e, ymin_e;
      xmax_e.add(nv.xmax, 1.0);
      xmin_e.add(nv.xmin, 1.0);
      ymax_e.add(nv.ymax, 1.0);
      ymin_e.add(nv.ymin, 1.0);
      detail::add_diff_constraint(built.model, g.x, xmax_e, -1, 0.0, 0.0);
      detail::add_diff_constraint(built.model, xmin_e, g.x, -1, 0.0, 0.0);
      detail::add_diff_constraint(built.model, g.y, ymax_e, -1, 0.0, 0.0);
      detail::add_diff_constraint(built.model, ymin_e, g.y, -1, 0.0, 0.0);
    }
    built.net_vars.push_back(nv);
  }

  // --- Alignment / overlap pairs (Eq. (4) or (11)-(14)) -------------------
  for (int net : nets) {
    const Net& n = nl.net(net);
    if (!n.routable()) continue;
    std::vector<PairPin> pins =
        net_instance_pins(d, net, built.inst_to_movable_);

    struct CandPair {
      PairPin p, q;
      double cur_dy;
    };
    std::vector<CandPair> cand_pairs;
    for (std::size_t i = 0; i < pins.size(); ++i) {
      for (std::size_t j = i + 1; j < pins.size(); ++j) {
        if (pins[i].movable_idx < 0 && pins[j].movable_idx < 0) continue;
        if (pins[i].inst == pins[j].inst) continue;
        double yi = static_cast<double>(
            d.pin_y_abs(pins[i].inst, pins[i].pin));
        double yj = static_cast<double>(
            d.pin_y_abs(pins[j].inst, pins[j].pin));
        cand_pairs.push_back({pins[i], pins[j], std::abs(yi - yj)});
      }
    }
    std::stable_sort(cand_pairs.begin(), cand_pairs.end(),
                     [](const CandPair& a, const CandPair& b) {
                       return a.cur_dy < b.cur_dy;
                     });
    int budget = prob.params.max_pairs_per_net;
    for (const CandPair& cp : cand_pairs) {
      if (budget <= 0) break;
      AlignPair pair;
      pair.p = cp.p;
      pair.q = cp.q;
      pair.net = net;
      PinGeom P = detail::make_pin_geom(d, built, cp.p.movable_idx, cp.p.inst,
                                        cp.p.pin);
      PinGeom Q = detail::make_pin_geom(d, built, cp.q.movable_idx, cp.q.inst,
                                        cp.q.pin);
      bool added = built.open_arch_
                       ? detail::add_open_pair(prob, built, pair, P, Q)
                       : detail::add_closed_pair(prob, built, pair, P, Q);
      if (added) {
        built.pairs.push_back(pair);
        --budget;
      }
    }
  }
  (void)H;
  return built;
}

// --- Solution mapping ------------------------------------------------------

double BuiltMilp::pin_x(const PairPin& p, const std::vector<int>& chosen) const {
  const Cell& c = design_->netlist().cell_of(p.inst);
  if (p.movable_idx < 0) {
    return static_cast<double>(
        design_->pin_position(NetPin{p.inst, p.pin}).x);
  }
  const Candidate& cd = cands[p.movable_idx][chosen[p.movable_idx]];
  return static_cast<double>(cd.x) + c.pin_x_track(p.pin, cd.flipped);
}

double BuiltMilp::pin_y(const PairPin& p, const std::vector<int>& chosen) const {
  const Cell& c = design_->netlist().cell_of(p.inst);
  if (p.movable_idx < 0) {
    return static_cast<double>(design_->pin_y_abs(p.inst, p.pin));
  }
  const Candidate& cd = cands[p.movable_idx][chosen[p.movable_idx]];
  return static_cast<double>(cd.row) *
             design_->tech().row_height() +
         static_cast<double>(c.pins[p.pin].y_off);
}

std::pair<double, double> BuiltMilp::pin_span(
    const PairPin& p, const std::vector<int>& chosen) const {
  const Cell& c = design_->netlist().cell_of(p.inst);
  if (p.movable_idx < 0) {
    auto [lo, hi] = design_->pin_span_abs(p.inst, p.pin);
    return {static_cast<double>(lo), static_cast<double>(hi)};
  }
  const Candidate& cd = cands[p.movable_idx][chosen[p.movable_idx]];
  auto [lo, hi] = c.pin_span(p.pin, cd.flipped);
  return {static_cast<double>(cd.x + lo), static_cast<double>(cd.x + hi)};
}

std::vector<double> BuiltMilp::complete(const std::vector<int>& chosen) const {
  const Design& d = *design_;
  const Netlist& nl = d.netlist();
  const double H = static_cast<double>(d.tech().row_height());
  std::vector<double> x(model.num_variables(), 0.0);

  for (std::size_t m = 0; m < cells.size(); ++m) {
    x[lambda[m][chosen[m]]] = 1.0;
  }

  auto position_of = [&](const NetPin& p) -> Point {
    if (!p.is_io()) {
      auto it = inst_to_movable_.find(p.inst);
      if (it != inst_to_movable_.end()) {
        PairPin pp{p.inst, p.pin, it->second};
        return Point{static_cast<Coord>(std::llround(pin_x(pp, chosen))),
                     static_cast<Coord>(std::llround(pin_y(pp, chosen)))};
      }
    }
    return d.pin_position(p);
  };

  for (const NetVars& nv : net_vars) {
    BBox box;
    for (const NetPin& p : nl.net(nv.net).pins) box.add(position_of(p));
    const Rect& r = box.rect();
    x[nv.xmax] = static_cast<double>(r.hx);
    x[nv.xmin] = static_cast<double>(r.lx);
    x[nv.ymax] = static_cast<double>(r.hy);
    x[nv.ymin] = static_cast<double>(r.ly);
  }

  for (const AlignPair& pr : pairs) {
    double dy = std::abs(pin_y(pr.p, chosen) - pin_y(pr.q, chosen));
    if (!open_arch_) {
      bool aligned = pin_x(pr.p, chosen) == pin_x(pr.q, chosen) &&
                     dy <= params_.gamma_closed * H + 1e-9;
      x[pr.d_var] = aligned ? 1.0 : 0.0;
    } else {
      auto [plo, phi] = pin_span(pr.p, chosen);
      auto [qlo, qhi] = pin_span(pr.q, chosen);
      double a = std::max(plo, qlo);
      double b = std::min(phi, qhi);
      bool within_y = dy <= params_.gamma * H + 1e-9;
      bool overlapped =
          within_y && (b - a >= static_cast<double>(params_.delta));
      if (pr.v_var >= 0) x[pr.v_var] = within_y ? 0.0 : 1.0;
      x[pr.d_var] = overlapped ? 1.0 : 0.0;
      if (pr.a_var >= 0) x[pr.a_var] = a;
      if (pr.b_var >= 0) x[pr.b_var] = b;
      if (pr.o_var >= 0) {
        x[pr.o_var] =
            overlapped ? b - a - static_cast<double>(params_.delta) : 0.0;
      }
    }
  }
  return x;
}

std::vector<double> BuiltMilp::warm_start(const Design& d) const {
  (void)d;
  // Candidate 0 is by construction the current placement of every cell.
  return complete(std::vector<int>(cells.size(), 0));
}

std::vector<Placement> BuiltMilp::chosen_placements(
    const std::vector<double>& x) const {
  std::vector<Placement> out;
  out.reserve(cells.size());
  for (std::size_t m = 0; m < cells.size(); ++m) {
    // Default to the current placement: a (theoretically infeasible)
    // all-zero lambda row leaves the cell where it is.
    Placement p = design_->placement(cells[m]);
    for (std::size_t k = 0; k < lambda[m].size(); ++k) {
      if (x[lambda[m][k]] > 0.5) {
        p = cands[m][k];
        break;
      }
    }
    out.push_back(p);
  }
  return out;
}

milp::RoundingHeuristic BuiltMilp::make_heuristic() const {
  return [this](const milp::Model&, const std::vector<double>& lpx)
             -> std::optional<std::vector<double>> {
    const Netlist& nl = design_->netlist();
    const int wsites = window_.width();
    const int wrows = window_.rows();
    std::vector<int> chosen(cells.size(), -1);

    // Order cells by their strongest lambda, strongest first.
    std::vector<std::pair<double, int>> order;
    for (std::size_t m = 0; m < cells.size(); ++m) {
      double best = 0;
      for (int v : lambda[m]) best = std::max(best, lpx[v]);
      order.emplace_back(-best, static_cast<int>(m));
    }
    std::stable_sort(order.begin(), order.end());

    std::vector<bool> used(static_cast<std::size_t>(wsites) * wrows, false);
    auto try_take = [&](int m, int k) {
      const Candidate& cd = cands[m][k];
      const int w = nl.cell_of(cells[m]).width_sites;
      int r = cd.row - window_.row0;
      if (r < 0 || r >= wrows) return false;
      for (int s = cd.x; s < cd.x + w; ++s) {
        int sx = s - window_.x0;
        if (sx < 0 || sx >= wsites) return false;
        if (used[static_cast<std::size_t>(r) * wsites + sx]) return false;
      }
      for (int s = cd.x; s < cd.x + w; ++s) {
        used[static_cast<std::size_t>(r) * wsites +
             (s - window_.x0)] = true;
      }
      chosen[m] = k;
      return true;
    };

    for (const auto& [neg, m] : order) {
      (void)neg;
      std::vector<std::pair<double, int>> ks;
      for (std::size_t k = 0; k < lambda[m].size(); ++k) {
        ks.emplace_back(-lpx[lambda[m][k]], static_cast<int>(k));
      }
      std::stable_sort(ks.begin(), ks.end());
      bool ok = false;
      for (const auto& [nv, k] : ks) {
        (void)nv;
        if (try_take(m, k)) {
          ok = true;
          break;
        }
      }
      if (!ok) return std::nullopt;
    }
    return complete(chosen);
  };
}

// --- Full-design objective ---------------------------------------------------

namespace {

/// One instance pin of a net, read once for both the net's HPWL and its
/// alignment pairs.
struct GatheredPin {
  int inst;
  Coord x;       ///< Design::pin_position
  Coord y;
  Coord lo, hi;  ///< Design::pin_span_abs
};

/// Appends the instance pins of `n` to `pins` in net order (IO pins are
/// left out) and returns the bounding box of all its connection points.
BBox gather_net_pins(const Design& d, const Net& n,
                     std::vector<GatheredPin>& pins) {
  BBox box;
  for (const NetPin& np : n.pins) {
    const Point pos = d.pin_position(np);
    box.add(pos);
    if (np.is_io()) continue;
    const auto [lo, hi] = d.pin_span_abs(np.inst, np.pin);
    pins.push_back(GatheredPin{np.inst, pos.x, pos.y, lo, hi});
  }
  return box;
}

/// Aligned (ClosedM1) / overlapped (OpenM1) pairs among `pins`, visited
/// i < j in gather order so the overlap sum adds up in one fixed order.
std::pair<long, double> count_pin_pairs(const std::vector<GatheredPin>& pins,
                                        double H, bool open,
                                        const VM1Params& params) {
  long count = 0;
  double overlap_sum = 0;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const GatheredPin& p = pins[i];
    for (std::size_t j = i + 1; j < pins.size(); ++j) {
      const GatheredPin& q = pins[j];
      if (p.inst == q.inst) continue;
      double dy =
          std::abs(static_cast<double>(p.y) - static_cast<double>(q.y));
      if (!open) {
        if (dy > params.gamma_closed * H) continue;
        if (p.x == q.x) ++count;
      } else {
        if (dy > params.gamma * H) continue;
        double ov = static_cast<double>(std::min(p.hi, q.hi)) -
                    static_cast<double>(std::max(p.lo, q.lo));
        if (ov >= static_cast<double>(params.delta)) {
          ++count;
          overlap_sum += ov - static_cast<double>(params.delta);
        }
      }
    }
  }
  return {count, overlap_sum};
}

}  // namespace

std::pair<long, double> count_net_alignments(const Design& d, int net,
                                             const VM1Params& params) {
  std::vector<GatheredPin> pins;
  gather_net_pins(d, d.netlist().net(net), pins);
  return count_pin_pairs(pins, static_cast<double>(d.tech().row_height()),
                         d.library().arch() == CellArch::kOpenM1, params);
}

ObjectiveBreakdown evaluate_objective(const Design& d,
                                      const VM1Params& params) {
  ObjectiveBreakdown out;
  const bool open = d.library().arch() == CellArch::kOpenM1;
  const double H = static_cast<double>(d.tech().row_height());
  const Netlist& nl = d.netlist();
  double weighted_hpwl = 0;
  std::vector<GatheredPin> pins;
  for (int net = 0; net < nl.num_nets(); ++net) {
    const Net& n = nl.net(net);
    if (!n.routable()) continue;
    pins.clear();
    double w = static_cast<double>(
        gather_net_pins(d, n, pins).rect().half_perimeter());
    out.hpwl += w;
    weighted_hpwl += params.beta_of(net) * w;
    auto [cnt, ovl] = count_pin_pairs(pins, H, open, params);
    out.alignments += cnt;
    out.overlap_sum += ovl;
  }
  out.value = weighted_hpwl - params.alpha * out.alignments;
  if (open) out.value -= params.epsilon * out.overlap_sum;
  return out;
}

std::vector<double> timing_criticality_weights(
    const Design& d, const std::vector<long>& net_lengths,
    double max_weight) {
  StaOptions sta_opts;
  sta_opts.net_lengths = net_lengths;
  StaResult sta = run_sta(d, sta_opts);
  std::vector<double> beta(d.netlist().num_nets(), 1.0);
  if (sta.max_delay <= 0) return beta;
  for (int net = 0; net < d.netlist().num_nets(); ++net) {
    double crit = sta.net_arrival[net] / sta.max_delay;
    // Quadratic ramp: only genuinely late nets get a heavy HPWL weight.
    beta[net] = 1.0 + (max_weight - 1.0) * crit * crit;
  }
  return beta;
}

}  // namespace vm1
