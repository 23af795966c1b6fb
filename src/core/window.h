/// \file window.h
/// Layout partitioning into windows and diagonal batch selection
/// (Section 4.1 of the paper).
///
/// Windows tile the core on a (bw x bh) grid offset by (tx, ty). A cell is
/// *movable* in a window when its footprint lies fully inside; boundary-
/// straddling cells stay fixed and are captured by shifting (tx, ty) in a
/// later outer iteration. Batches group windows whose x- and y-projections
/// are pairwise disjoint (wrapped diagonals), so per-window HPWL deltas add
/// up exactly (Figure 4(b)) and the batch can be solved in parallel;
/// there are max(grid_x, grid_y) ~ sqrt(|W|) batches.
#pragma once

#include <vector>

#include "core/candidates.h"

namespace vm1 {

struct WindowGrid {
  std::vector<Window> windows;
  std::vector<std::vector<int>> movable;  ///< per window: movable insts
  /// Per instance: the window it is movable in, or -1 (movable nowhere).
  /// owner[i] == w exactly for the instances in movable[w].
  std::vector<int> owner;
  int grid_x = 0;  ///< number of window columns
  int grid_y = 0;  ///< number of window rows
  /// Pitch and origin: window (wx, wy) covers sites [tx + wx*bw,
  /// tx + (wx+1)*bw) of rows [ty + wy*bh, ty + (wy+1)*bh), clipped to the
  /// core, with tx in [-(bw-1), 0] and ty in [-(bh-1), 0].
  int tx = 0;
  int ty = 0;
  int bw = 1;
  int bh = 1;
};

/// Partitions the core into bw-site x bh-row windows with offset (tx, ty)
/// (in sites / rows), assigning each instance to the window that fully
/// contains it.
WindowGrid partition_windows(const Design& d, int tx, int ty, int bw,
                             int bh);

/// Returns batches of window indices with pairwise-disjoint x and y
/// projections covering every window exactly once.
std::vector<std::vector<int>> diagonal_batches(const WindowGrid& grid);

/// Per window: sorted, de-duplicated nets incident to any movable cell.
/// This is the dirtiness footprint used by the incremental engine — a
/// window must be re-solved when any of these nets was touched by another
/// window's accepted solution (including diagonal-batch neighbors).
std::vector<std::vector<int>> window_incident_nets(const WindowGrid& grid,
                                                   const Netlist& nl);

/// Per window: fixed_site_mask(d, window, movable), from one scan over the
/// instances instead of one per window. Only a cell that is movable in no
/// window can block a window's sites (a movable cell lies inside its own
/// window, and windows are disjoint), so each such cell is marked into the
/// windows it overlaps. The masks stay exact for the whole DistOpt pass:
/// every apply path keeps a window's movable cells inside that window, and
/// no other cell moves (DESIGN.md §3.3).
std::vector<SiteMask> window_fixed_masks(const WindowGrid& grid,
                                         const Design& d);

}  // namespace vm1
