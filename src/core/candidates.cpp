#include "core/candidates.h"

#include <algorithm>

namespace vm1 {

SiteMask fixed_site_mask(const Design& d, const Window& win,
                         const std::vector<int>& movable) {
  SiteMask mask(win.rows(), std::vector<bool>(win.width(), false));
  const int n = d.netlist().num_instances();
  std::vector<bool> is_movable(n, false);
  for (int m : movable) is_movable[m] = true;
  for (int i = 0; i < n; ++i) {
    if (!is_movable[i]) mark_fixed_sites(d, i, win, mask);
  }
  return mask;
}

void mark_fixed_sites(const Design& d, int inst, const Window& win,
                      SiteMask& mask) {
  const Placement& p = d.placement(inst);
  if (p.row < win.row0 || p.row > win.row1) return;
  const int lo = std::max(p.x, win.x0);
  const int hi =
      std::min(p.x + d.netlist().cell_of(inst).width_sites, win.x1);
  std::vector<bool>& row = mask[p.row - win.row0];
  for (int s = lo; s < hi; ++s) row[s - win.x0] = true;
}

std::vector<Candidate> enumerate_candidates(
    const Design& d, int inst, const Window& win,
    const SiteMask& fixed_mask, int lx, int ly,
    bool allow_move, bool allow_flip) {
  const Placement cur = d.placement(inst);
  const int w = d.netlist().cell_of(inst).width_sites;

  auto fits = [&](int x, int row) {
    if (!win.contains_footprint(x, row, w)) return false;
    for (int s = x; s < x + w; ++s) {
      if (fixed_mask[row - win.row0][s - win.x0]) return false;
    }
    return true;
  };

  std::vector<Candidate> out;
  // Candidate 0 is always the current placement (kept even if the cell
  // straddles fixed sites — it is the fallback identity assignment).
  out.push_back(cur);
  if (allow_flip) {
    Candidate f = cur;
    f.flipped = !cur.flipped;
    if (fits(f.x, f.row)) out.push_back(f);
  }
  if (!allow_move) return out;

  for (int row = cur.row - ly; row <= cur.row + ly; ++row) {
    for (int x = cur.x - lx; x <= cur.x + lx; ++x) {
      if (x == cur.x && row == cur.row) continue;  // already added
      if (!fits(x, row)) continue;
      out.push_back(Candidate{x, row, cur.flipped});
      if (allow_flip) out.push_back(Candidate{x, row, !cur.flipped});
    }
  }
  return out;
}

}  // namespace vm1
