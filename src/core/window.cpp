#include "core/window.h"

#include <algorithm>

namespace vm1 {

WindowGrid partition_windows(const Design& d, int tx, int ty, int bw,
                             int bh) {
  WindowGrid grid;
  const int sites = d.sites_per_row();
  const int rows = d.num_rows();
  bw = std::max(1, bw);
  bh = std::max(1, bh);
  // Normalize offsets into [-(bw-1), 0] so window 0 starts at or before 0.
  tx = -(((tx % bw) + bw) % bw);
  ty = -(((ty % bh) + bh) % bh);

  grid.grid_x = (sites - tx + bw - 1) / bw;
  grid.grid_y = (rows - ty + bh - 1) / bh;
  grid.tx = tx;
  grid.ty = ty;
  grid.bw = bw;
  grid.bh = bh;

  for (int wy = 0; wy < grid.grid_y; ++wy) {
    for (int wx = 0; wx < grid.grid_x; ++wx) {
      Window w;
      w.x0 = std::max(0, tx + wx * bw);
      w.x1 = std::min(sites, tx + (wx + 1) * bw);
      w.row0 = std::max(0, ty + wy * bh);
      w.row1 = std::min(rows - 1, ty + (wy + 1) * bh - 1);
      grid.windows.push_back(w);
    }
  }
  grid.movable.resize(grid.windows.size());

  const Netlist& nl = d.netlist();
  grid.owner.assign(static_cast<std::size_t>(nl.num_instances()), -1);
  for (int i = 0; i < nl.num_instances(); ++i) {
    const Placement& p = d.placement(i);
    const Cell& c = nl.cell_of(i);
    if (c.filler) continue;
    int wx = (p.x - tx) / bw;
    int wy = (p.row - ty) / bh;
    if (wx < 0 || wx >= grid.grid_x || wy < 0 || wy >= grid.grid_y) continue;
    std::size_t idx = static_cast<std::size_t>(wy) * grid.grid_x + wx;
    if (grid.windows[idx].contains_footprint(p.x, p.row, c.width_sites)) {
      grid.movable[idx].push_back(i);
      grid.owner[static_cast<std::size_t>(i)] = static_cast<int>(idx);
    }
  }
  return grid;
}

std::vector<std::vector<int>> diagonal_batches(const WindowGrid& grid) {
  std::vector<std::vector<int>> batches;
  const int gx = grid.grid_x;
  const int gy = grid.grid_y;
  if (gx <= 0 || gy <= 0) return batches;

  // Wrapped diagonals over the larger dimension: every batch takes at most
  // one window per column and one per row.
  if (gx <= gy) {
    batches.resize(gy);
    for (int k = 0; k < gy; ++k) {
      for (int i = 0; i < gx; ++i) {
        int wy = (i + k) % gy;
        batches[k].push_back(wy * gx + i);
      }
    }
  } else {
    batches.resize(gx);
    for (int k = 0; k < gx; ++k) {
      for (int j = 0; j < gy; ++j) {
        int wx = (j + k) % gx;
        batches[k].push_back(j * gx + wx);
      }
    }
  }
  return batches;
}

std::vector<std::vector<int>> window_incident_nets(const WindowGrid& grid,
                                                   const Netlist& nl) {
  std::vector<std::vector<int>> incident(grid.windows.size());
  for (std::size_t w = 0; w < grid.windows.size(); ++w) {
    std::vector<int>& nets = incident[w];
    for (int inst : grid.movable[w]) {
      const std::vector<int>& in = nl.nets_of(inst);
      nets.insert(nets.end(), in.begin(), in.end());
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  }
  return incident;
}

std::vector<SiteMask> window_fixed_masks(const WindowGrid& grid,
                                         const Design& d) {
  std::vector<SiteMask> masks;
  masks.reserve(grid.windows.size());
  for (const Window& w : grid.windows) {
    masks.emplace_back(w.rows(), std::vector<bool>(w.width(), false));
  }
  const Netlist& nl = d.netlist();
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (grid.owner[static_cast<std::size_t>(i)] >= 0) continue;
    const Placement& p = d.placement(i);
    if (p.row < 0 || p.row >= d.num_rows()) continue;
    const int lo = std::max(p.x, 0);
    const int hi =
        std::min(p.x + nl.cell_of(i).width_sites, d.sites_per_row());
    if (lo >= hi) continue;
    const int wy = (p.row - grid.ty) / grid.bh;
    for (int wx = (lo - grid.tx) / grid.bw; wx <= (hi - 1 - grid.tx) / grid.bw;
         ++wx) {
      const std::size_t idx = static_cast<std::size_t>(wy) * grid.grid_x + wx;
      mark_fixed_sites(d, i, grid.windows[idx], masks[idx]);
    }
  }
  return masks;
}

}  // namespace vm1
