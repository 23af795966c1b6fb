/// \file candidates.h
/// Single-cell-placement (SCP) candidate enumeration.
///
/// Following Li & Koh's SCP model as used by the paper (Section 3.1,
/// constraints (5)-(9)): each movable cell gets an explicit list of
/// candidate placements (x, row, flip) within its perturbation range
/// (lx, ly) that keep the cell inside its window and off sites occupied by
/// fixed cells. One binary lambda per candidate selects the placement.
#pragma once

#include <vector>

#include "design/design.h"

namespace vm1 {

/// One candidate placement for a cell (same encoding as Placement).
using Candidate = Placement;

/// An optimization window: sites [x0, x1) of rows [row0, row1].
struct Window {
  int x0 = 0;
  int x1 = 0;
  int row0 = 0;
  int row1 = 0;

  int width() const { return x1 - x0; }
  int rows() const { return row1 - row0 + 1; }
  bool contains_footprint(int x, int row, int w) const {
    return row >= row0 && row <= row1 && x >= x0 && x + w <= x1;
  }
};

/// Site occupancy of one window, indexed [row - row0][site - x0]; true =
/// blocked.
using SiteMask = std::vector<std::vector<bool>>;

/// Occupancy of the window's sites by *fixed* cells (movable cells'
/// current sites are free for re-assignment). Scans every instance; a DistOpt
/// pass takes all its windows' masks from one scan instead
/// (window_fixed_masks in core/window.h).
SiteMask fixed_site_mask(const Design& d, const Window& win,
                         const std::vector<int>& movable);

/// Marks in `mask` (sized for `win`) the sites of `win` that instance
/// `inst` covers. fixed_site_mask and window_fixed_masks both mark through
/// it, so the two agree site for site.
void mark_fixed_sites(const Design& d, int inst, const Window& win,
                      SiteMask& mask);

/// Enumerates candidates for `inst`:
///  * |x - x_cur| <= lx, |row - row_cur| <= ly;
///  * footprint inside `win` and clear of fixed sites;
///  * flip variants when allow_flip; when allow_move is false only the
///    current (x, row) is kept (the flip-only pass of Algorithm 1).
/// The current placement is always candidate 0.
std::vector<Candidate> enumerate_candidates(
    const Design& d, int inst, const Window& win,
    const SiteMask& fixed_mask, int lx, int ly,
    bool allow_move, bool allow_flip);

}  // namespace vm1
