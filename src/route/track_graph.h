/// \file track_graph.h
/// 3D routing track graph over the core area.
///
/// Grid model (all coordinates in grid units):
///   * gx: x in DBU (one M1 track per placement site; M1 pitch == site width);
///   * gy: horizontal track index; track k sits at y = 2k DBU (M2 pitch 2);
///   * layers M1(V) / M2(H) / M3(V, every 2nd gx) / M4(H, every 2nd gy).
/// M0 is not part of the graph: OpenM1 pins are exposed as M1 access nodes
/// (a V01 via is implied and priced at access).
///
/// Architecture-specific blockage (built from the placed design):
///   * ClosedM1 / conventional signal pins own their M1 stub nodes (hard
///     blocked for other nets);
///   * ClosedM1 cells have boundary M1 PG pins: the M1 columns at every cell
///     boundary are blocked over the cell's row span;
///   * conventional 12T additionally blocks every M1 edge that crosses a row
///     boundary (horizontal M1 rails) — no inter-row M1 at all;
///   * OpenM1 reserves PG-staple M1 columns at a fixed pitch;
///   * every row boundary blocks one M2 track (M2 PG straps).
#pragma once

#include <cstdint>
#include <vector>

#include "design/design.h"

namespace vm1 {

/// Routable layers are indexed 0..3 == M1..M4 inside the router.
inline constexpr int kNumRouteLayers = 4;
inline constexpr int kM1 = 0;
inline constexpr int kM2 = 1;
inline constexpr int kM3 = 2;
inline constexpr int kM4 = 3;

/// Owner codes for node blockage.
inline constexpr std::int32_t kFree = -1;
inline constexpr std::int32_t kBlocked = -2;

/// Node handle: packed (layer, gx, gy).
struct GNode {
  int layer = 0;
  int gx = 0;
  int gy = 0;
  friend bool operator==(const GNode&, const GNode&) = default;
};

struct TrackGraphOptions {
  /// OpenM1 power-staple pitch in sites (M1 columns reserved for PG);
  /// 0 disables stapling.
  int staple_pitch = 12;
};

class TrackGraph {
 public:
  TrackGraph(const Design& d, const TrackGraphOptions& opts = {});

  int width() const { return gx_max_; }    ///< gx in [0, width()]
  int height() const { return gy_max_; }   ///< gy in [0, height()]
  const Design& design() const { return *design_; }

  /// True when (layer, gx, gy) is on the layer's track lattice and inside
  /// the core.
  bool valid(int layer, int gx, int gy) const {
    if (gx < 0 || gx > gx_max_ || gy < 0 || gy > gy_max_) return false;
    if (layer == kM3 && (gx % 2) != 0) return false;
    if (layer == kM4 && (gy % 2) != 0) return false;
    return true;
  }
  /// True when a vertical (along-y) layer; M1/M3 are vertical.
  static bool is_vertical(int layer) { return layer == kM1 || layer == kM3; }

  std::size_t node_id(int layer, int gx, int gy) const {
    return layer_off_[layer] + static_cast<std::size_t>(gy) * (gx_max_ + 1) +
           gx;
  }
  std::size_t num_nodes() const { return layer_off_[kNumRouteLayers]; }

  /// Node owner: kFree, kBlocked, or the owning net id (pins).
  std::int32_t owner(int layer, int gx, int gy) const {
    return owner_[node_id(layer, gx, gy)];
  }
  /// True when `net` may use the node (free or owned by the same net).
  bool passable(int layer, int gx, int gy, int net) const {
    std::int32_t o = owner_[node_id(layer, gx, gy)];
    return o == kFree || o == net;
  }

  /// True when the along-layer edge from (gx, gy) toward +1 step is usable
  /// (both endpoints valid; architecture rules allow it).
  bool edge_allowed(int layer, int gx, int gy, int net) const {
    int tx = gx + (is_vertical(layer) ? 0 : 1);
    int ty = gy + (is_vertical(layer) ? 1 : 0);
    if (!valid(layer, gx, gy) || !valid(layer, tx, ty)) return false;
    if (!passable(layer, gx, gy, net) || !passable(layer, tx, ty, net)) {
      return false;
    }
    // Conventional 12T: horizontal M1 PG rails sit on every row boundary, so
    // an M1 edge whose DBU span (2gy, 2gy+2] touches a boundary is
    // forbidden.
    if (layer == kM1 && arch_ == CellArch::kConventional12T) {
      Coord y0 = static_cast<Coord>(gy) * 2;
      Coord next_boundary = (y0 / row_h_ + 1) * row_h_;
      if (next_boundary <= y0 + 2) return false;
    }
    return true;
  }

  /// Wire length of one along-layer edge step in DBU (1 for horizontal
  /// layers, 2 for vertical layers). Edges always advance the moving
  /// coordinate by one grid unit; the off-axis lattice restriction (M3 on
  /// even gx, M4 on even gy) is enforced by valid().
  static Coord edge_len_dbu(int layer) { return is_vertical(layer) ? 2 : 1; }

  /// Grid y-track range [lo, hi] covered by DBU interval [y0, y1].
  static std::pair<int, int> track_range(Coord y0, Coord y1) {
    int lo = static_cast<int>((y0 + 1) / 2);
    int hi = static_cast<int>(y1 / 2);
    return {lo, hi};
  }

  /// All M1 access nodes of (inst, pin) in the current placement.
  std::vector<GNode> pin_access_nodes(int inst, int pin) const;
  /// Access nodes for an IO terminal: the nearest M2 node to its location.
  std::vector<GNode> io_access_nodes(int io) const;

  /// Rebuilds pin/PG blockage from the design's current placement.
  void rebuild_blockage();

 private:
  void block_node(int layer, int gx, int gy, std::int32_t owner);

  const Design* design_;
  TrackGraphOptions opts_;
  CellArch arch_;  ///< the design library's, read once
  Coord row_h_;    ///< the tech's row height in DBU, read once
  int gx_max_;
  int gy_max_;
  std::size_t layer_off_[kNumRouteLayers + 1];
  std::vector<std::int32_t> owner_;
};

}  // namespace vm1
