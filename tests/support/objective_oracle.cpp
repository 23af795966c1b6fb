#include "support/objective_oracle.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace vm1::oracle {
namespace {

Coord origin_x(const Design& d, int inst) {
  return static_cast<Coord>(d.placement(inst).x) * d.tech().site_width();
}

Point pin_xy(const Design& d, const NetPin& np) {
  if (np.is_io()) return d.io_position(np.pin);
  const Placement& p = d.placement(np.inst);
  const Cell& c = d.netlist().cell_of(np.inst);
  return Point{origin_x(d, np.inst) + c.pin_x_track(np.pin, p.flipped),
               static_cast<Coord>(p.row) * d.tech().row_height() +
                   c.pins[np.pin].y_off};
}

std::pair<Coord, Coord> pin_span(const Design& d, const NetPin& np) {
  const Cell& c = d.netlist().cell_of(np.inst);
  auto [lo, hi] = c.pin_span(np.pin, d.placement(np.inst).flipped);
  return {origin_x(d, np.inst) + lo, origin_x(d, np.inst) + hi};
}

}  // namespace

std::pair<long, double> pairwise_net_alignments(const Design& d, int net,
                                                const VM1Params& params) {
  const Net& n = d.netlist().net(net);
  const double H = static_cast<double>(d.tech().row_height());
  const bool open = d.library().arch() == CellArch::kOpenM1;
  long count = 0;
  double overlap_sum = 0;

  std::vector<NetPin> pins;
  for (const NetPin& p : n.pins) {
    if (!p.is_io()) pins.push_back(p);
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    for (std::size_t j = i + 1; j < pins.size(); ++j) {
      if (pins[i].inst == pins[j].inst) continue;
      double dy = std::abs(static_cast<double>(pin_xy(d, pins[i]).y) -
                           static_cast<double>(pin_xy(d, pins[j]).y));
      if (!open) {
        if (dy > params.gamma_closed * H) continue;
        if (pin_xy(d, pins[i]).x == pin_xy(d, pins[j]).x) ++count;
      } else {
        if (dy > params.gamma * H) continue;
        auto [plo, phi] = pin_span(d, pins[i]);
        auto [qlo, qhi] = pin_span(d, pins[j]);
        double ov = static_cast<double>(std::min(phi, qhi)) -
                    static_cast<double>(std::max(plo, qlo));
        if (ov >= static_cast<double>(params.delta)) {
          ++count;
          overlap_sum += ov - static_cast<double>(params.delta);
        }
      }
    }
  }
  return {count, overlap_sum};
}

ObjectiveBreakdown pairwise_objective(const Design& d,
                                      const VM1Params& params) {
  ObjectiveBreakdown out;
  const bool open = d.library().arch() == CellArch::kOpenM1;
  double weighted_hpwl = 0;
  for (int net = 0; net < d.netlist().num_nets(); ++net) {
    const Net& n = d.netlist().net(net);
    if (!n.routable()) continue;
    BBox box;
    for (const NetPin& p : n.pins) box.add(pin_xy(d, p));
    double w = static_cast<double>(box.rect().half_perimeter());
    out.hpwl += w;
    weighted_hpwl += params.beta_of(net) * w;
    auto [cnt, ovl] = pairwise_net_alignments(d, net, params);
    out.alignments += cnt;
    out.overlap_sum += ovl;
  }
  out.value = weighted_hpwl - params.alpha * out.alignments;
  if (open) out.value -= params.epsilon * out.overlap_sum;
  return out;
}

}  // namespace vm1::oracle
