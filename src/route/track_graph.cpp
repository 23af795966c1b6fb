#include "route/track_graph.h"

#include <algorithm>
#include <cmath>

namespace vm1 {

TrackGraph::TrackGraph(const Design& d, const TrackGraphOptions& opts)
    : design_(&d),
      opts_(opts),
      arch_(d.library().arch()),
      row_h_(d.tech().row_height()) {
  const Rect core = d.core();
  gx_max_ = static_cast<int>(core.hx);
  gy_max_ = static_cast<int>(core.hy / 2);
  std::size_t per_layer =
      static_cast<std::size_t>(gx_max_ + 1) * (gy_max_ + 1);
  for (int l = 0; l <= kNumRouteLayers; ++l) {
    layer_off_[l] = static_cast<std::size_t>(l) * per_layer;
  }
  owner_.assign(num_nodes(), kFree);
  rebuild_blockage();
}

void TrackGraph::block_node(int layer, int gx, int gy, std::int32_t who) {
  if (gx < 0 || gx > gx_max_ || gy < 0 || gy > gy_max_) return;
  std::int32_t& o = owner_[node_id(layer, gx, gy)];
  // Hard blockage wins; net ownership never overwrites another net (that
  // would be a library/pin-geometry bug caught by tests).
  if (who == kBlocked || o == kFree) o = who;
}

void TrackGraph::rebuild_blockage() {
  std::fill(owner_.begin(), owner_.end(), kFree);
  const Design& d = *design_;
  const Netlist& nl = d.netlist();

  // M2 PG straps: one blocked M2 track per row boundary.
  for (int r = 0; r <= d.num_rows(); ++r) {
    int gy = static_cast<int>(
        std::llround(static_cast<double>(r) * row_h_ / 2.0));
    gy = std::clamp(gy, 0, gy_max_);
    for (int gx = 0; gx <= gx_max_; ++gx) block_node(kM2, gx, gy, kBlocked);
  }

  // OpenM1 PG staples: reserve M1 columns at a fixed pitch.
  if (arch_ == CellArch::kOpenM1 && opts_.staple_pitch > 0) {
    for (int gx = 0; gx <= gx_max_; gx += opts_.staple_pitch) {
      for (int gy = 0; gy <= gy_max_; ++gy) block_node(kM1, gx, gy, kBlocked);
    }
  }

  for (int i = 0; i < nl.num_instances(); ++i) {
    const Placement& p = d.placement(i);
    const Cell& c = nl.cell_of(i);
    const Coord x0 = static_cast<Coord>(p.x);
    const Coord y0 = static_cast<Coord>(p.row) * row_h_;
    auto [row_lo, row_hi] = track_range(y0, y0 + row_h_);

    if (arch_ == CellArch::kClosedM1 || arch_ == CellArch::kConventional12T) {
      // Boundary M1 PG pins block the columns at both cell edges across the
      // full row span.
      for (Coord bx : {x0, x0 + c.width_sites}) {
        for (int gy = row_lo; gy <= std::min(row_hi, gy_max_); ++gy) {
          block_node(kM1, static_cast<int>(bx), gy, kBlocked);
        }
      }
      // Signal pins own their M1 stub nodes.
      for (std::size_t pin = 0; pin < c.pins.size(); ++pin) {
        int net = nl.net_at(i, static_cast<int>(pin));
        std::int32_t who = net >= 0 ? net : kBlocked;
        Coord px = x0 + c.pin_x_track(static_cast<int>(pin), p.flipped);
        const Rect& shape = c.pins[pin].shapes.front().box;
        auto [lo, hi] = track_range(y0 + shape.ly, y0 + shape.hy);
        for (int gy = lo; gy <= std::min(hi, gy_max_); ++gy) {
          block_node(kM1, static_cast<int>(px), gy, who);
        }
      }
    }
    // OpenM1 pins live on M0 and do not block M1.
  }
}

std::vector<GNode> TrackGraph::pin_access_nodes(int inst, int pin) const {
  const Design& d = *design_;
  const Netlist& nl = d.netlist();
  const Cell& c = nl.cell_of(inst);
  const Placement& p = d.placement(inst);
  const Coord row_h = d.tech().row_height();
  const Coord y0 = static_cast<Coord>(p.row) * row_h;
  std::vector<GNode> nodes;

  if (c.arch == CellArch::kOpenM1) {
    // Any M1 track over the M0 segment can drop a V01 via onto the pin.
    auto [xlo, xhi] = d.pin_span_abs(inst, pin);
    Coord py = y0 + c.pins[pin].y_off;
    int gy = std::clamp(static_cast<int>(py / 2), 0, gy_max_);
    for (Coord x = xlo; x <= xhi; ++x) {
      int gx = static_cast<int>(x);
      if (gx < 0 || gx > gx_max_) continue;
      if (owner(kM1, gx, gy) == kBlocked) continue;  // PG staple column
      nodes.push_back(GNode{kM1, gx, gy});
    }
  } else {
    // 1D M1 stub: every track the stub covers is an access node.
    Coord px = static_cast<Coord>(p.x) + c.pin_x_track(pin, p.flipped);
    const Rect& shape = c.pins[pin].shapes.front().box;
    auto [lo, hi] = track_range(y0 + shape.ly, y0 + shape.hy);
    for (int gy = lo; gy <= std::min(hi, gy_max_); ++gy) {
      nodes.push_back(GNode{kM1, static_cast<int>(px), gy});
    }
  }
  return nodes;
}

std::vector<GNode> TrackGraph::io_access_nodes(int io) const {
  const Point& pos = design_->io_position(io);
  int gx = std::clamp(static_cast<int>(pos.x), 0, gx_max_);
  int gy = std::clamp(static_cast<int>(pos.y / 2), 0, gy_max_);
  std::vector<GNode> nodes;
  // IO pads connect on M2 (horizontal); pick the nearest unblocked track.
  for (int dy = 0; dy <= gy_max_; ++dy) {
    for (int s : {gy - dy, gy + dy}) {
      if (s < 0 || s > gy_max_) continue;
      if (owner(kM2, gx, s) != kBlocked) {
        nodes.push_back(GNode{kM2, gx, s});
        return nodes;
      }
      if (dy == 0) break;
    }
  }
  nodes.push_back(GNode{kM2, gx, gy});
  return nodes;
}

}  // namespace vm1
