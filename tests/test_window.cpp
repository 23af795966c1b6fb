#include "core/window.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cells/library_builder.h"
#include "core/incremental.h"
#include "design/legality.h"
#include "netlist/generator.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace vm1 {
namespace {

Design placed() {
  Design d = make_design("tiny", CellArch::kClosedM1);
  global_place(d);
  legalize(d);
  return d;
}

TEST(WindowPartition, TilesTheCore) {
  Design d = placed();
  WindowGrid grid = partition_windows(d, 0, 0, 20, 3);
  EXPECT_EQ(static_cast<int>(grid.windows.size()),
            grid.grid_x * grid.grid_y);
  // Every site of every row belongs to exactly one window.
  for (int row = 0; row < d.num_rows(); row += 2) {
    for (int s = 0; s < d.sites_per_row(); s += 3) {
      int covering = 0;
      for (const Window& w : grid.windows) {
        if (row >= w.row0 && row <= w.row1 && s >= w.x0 && s < w.x1) {
          ++covering;
        }
      }
      EXPECT_EQ(covering, 1) << "site " << s << " row " << row;
    }
  }
}

TEST(WindowPartition, MovableCellsFullyInside) {
  Design d = placed();
  WindowGrid grid = partition_windows(d, 0, 0, 16, 2);
  const Netlist& nl = d.netlist();
  for (std::size_t w = 0; w < grid.windows.size(); ++w) {
    for (int inst : grid.movable[w]) {
      const Placement& p = d.placement(inst);
      EXPECT_TRUE(grid.windows[w].contains_footprint(
          p.x, p.row, nl.cell_of(inst).width_sites));
    }
  }
}

TEST(WindowPartition, EachCellMovableInAtMostOneWindow) {
  Design d = placed();
  WindowGrid grid = partition_windows(d, 0, 0, 16, 2);
  std::set<int> seen;
  for (const auto& cells : grid.movable) {
    for (int inst : cells) {
      EXPECT_TRUE(seen.insert(inst).second) << "instance " << inst;
    }
  }
}

TEST(WindowPartition, ShiftMakesBoundaryCellsMovable) {
  Design d = placed();
  WindowGrid a = partition_windows(d, 0, 0, 16, 2);
  WindowGrid b = partition_windows(d, 8, 1, 16, 2);
  std::set<int> ma, mb;
  for (const auto& cells : a.movable) ma.insert(cells.begin(), cells.end());
  for (const auto& cells : b.movable) mb.insert(cells.begin(), cells.end());
  // The union should cover more cells than either partition alone (the
  // boundary-straddling cells of one are interior in the other).
  std::set<int> both = ma;
  both.insert(mb.begin(), mb.end());
  EXPECT_GT(both.size(), ma.size());
  EXPECT_GT(both.size(), mb.size());
}

TEST(DiagonalBatches, CoverEveryWindowOnce) {
  Design d = placed();
  WindowGrid grid = partition_windows(d, 0, 0, 12, 2);
  auto batches = diagonal_batches(grid);
  std::set<int> seen;
  std::size_t total = 0;
  for (const auto& batch : batches) {
    for (int w : batch) {
      EXPECT_TRUE(seen.insert(w).second) << "window repeated";
      ++total;
    }
  }
  EXPECT_EQ(total, grid.windows.size());
}

TEST(DiagonalBatches, DisjointProjectionsWithinBatch) {
  Design d = placed();
  WindowGrid grid = partition_windows(d, 0, 0, 12, 2);
  auto batches = diagonal_batches(grid);
  for (const auto& batch : batches) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (std::size_t j = i + 1; j < batch.size(); ++j) {
        const Window& a = grid.windows[batch[i]];
        const Window& b = grid.windows[batch[j]];
        bool x_disjoint = a.x1 <= b.x0 || b.x1 <= a.x0;
        bool y_disjoint = a.row1 < b.row0 || b.row1 < a.row0;
        EXPECT_TRUE(x_disjoint) << "x projections intersect";
        EXPECT_TRUE(y_disjoint) << "y projections intersect";
      }
    }
  }
}

TEST(DiagonalBatches, CountIsMaxGridDimension) {
  Design d = placed();
  WindowGrid grid = partition_windows(d, 0, 0, 12, 2);
  auto batches = diagonal_batches(grid);
  EXPECT_EQ(static_cast<int>(batches.size()),
            std::max(grid.grid_x, grid.grid_y));
}

TEST(WindowPartition, OffsetNormalizationHandlesLargeShifts) {
  Design d = placed();
  // Offsets beyond one window period must behave like their modulo.
  WindowGrid a = partition_windows(d, 8, 1, 16, 2);
  WindowGrid b = partition_windows(d, 8 + 32, 1 + 4, 16, 2);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].x0, b.windows[i].x0);
    EXPECT_EQ(a.windows[i].row0, b.windows[i].row0);
  }
}

// --- Per-pass fixed-site masks (window_fixed_masks) ----------------------

/// A legal random placement of a small generated netlist plus 20-39
/// fillers: each row is filled left to right in a shuffled order with gaps
/// of 0-2 sites, so cells land across window edges and fillers sit among
/// them. The design depends on the seed alone, so the signatures pinned
/// below are the same on every host.
Design random_design(CellArch arch, std::uint64_t seed) {
  auto lib = std::make_unique<Library>(build_library(arch));
  GeneratorConfig cfg = design_config("tiny", 0.5);
  cfg.seed = seed;
  auto nl = std::make_unique<Netlist>(generate_netlist(*lib, cfg));
  Rng rng(seed);
  std::vector<int> fillers;
  for (int c = 0; c < lib->num_cells(); ++c) {
    if (lib->cell(c).filler) fillers.push_back(c);
  }
  const int num_fillers = 20 + static_cast<int>(rng.uniform(20));
  for (int k = 0; k < num_fillers; ++k) {
    nl->add_instance("fill" + std::to_string(k),
                     fillers[rng.uniform(fillers.size())]);
  }
  const int sites = 24 + static_cast<int>(rng.uniform(24));
  std::vector<int> order(nl->num_instances());
  for (int i = 0; i < nl->num_instances(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<Placement> place(nl->num_instances());
  int row = 0;
  int x = 0;
  for (int inst : order) {
    const int w = nl->cell_of(inst).width_sites;
    const int gap = static_cast<int>(rng.uniform(3));
    if (x + gap + w > sites) {
      ++row;
      x = 0;
    }
    place[inst] = Placement{x + gap, row, rng.chance(0.5)};
    x += gap + w;
  }

  Design d("random_" + std::to_string(seed), Tech::make_7nm(), std::move(lib),
           std::move(nl), row + 1, sites);
  for (std::size_t i = 0; i < place.size(); ++i) {
    d.set_placement(static_cast<int>(i), place[i]);
  }
  return d;
}

/// Grid shapes (tx, ty, bw, bh): negative and oversized offsets, one-site
/// windows, and windows wider or taller than the core, so that windows are
/// clipped at the core edge.
struct GridShape {
  int tx, ty, bw, bh;
};
const GridShape kShapes[] = {{0, 0, 8, 2},   {3, 1, 7, 3},  {-5, 2, 16, 4},
                             {5, 0, 1, 1},   {2, 1, 5, 1},  {11, 3, 64, 64},
                             {40, 9, 12, 5}};

class PassMask : public ::testing::TestWithParam<CellArch> {};

TEST_P(PassMask, EqualsPerWindowScan) {
  long straddlers = 0;
  long clipped = 0;
  long blocked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Design d = random_design(GetParam(), seed);
    ASSERT_TRUE(is_legal(d)) << "seed " << seed;
    const Netlist& nl = d.netlist();
    for (const GridShape& g : kShapes) {
      WindowGrid grid = partition_windows(d, g.tx, g.ty, g.bw, g.bh);
      std::vector<SiteMask> masks = window_fixed_masks(grid, d);
      ASSERT_EQ(masks.size(), grid.windows.size());
      for (std::size_t w = 0; w < grid.windows.size(); ++w) {
        const Window& win = grid.windows[w];
        SiteMask fresh = fixed_site_mask(d, win, grid.movable[w]);
        EXPECT_EQ(masks[w], fresh)
            << "seed " << seed << " grid (" << g.tx << "," << g.ty << ","
            << g.bw << "," << g.bh << ") window " << w;
        if (win.width() < grid.bw || win.rows() < grid.bh) ++clipped;
        for (const std::vector<bool>& r : fresh) {
          for (bool b : r) blocked += b;
        }
      }
      for (int i = 0; i < nl.num_instances(); ++i) {
        const Placement& p = d.placement(i);
        const int w = nl.cell_of(i).width_sites;
        if ((p.x - grid.tx) / grid.bw != (p.x + w - 1 - grid.tx) / grid.bw) {
          ++straddlers;
        }
      }
    }
  }
  EXPECT_GT(straddlers, 0);
  EXPECT_GT(clipped, 0);
  EXPECT_GT(blocked, 0);
}

/// Moves every movable cell of every window to a random free spot inside
/// its own window, with a random orientation, as every apply path of a
/// DistOpt pass does (audited solutions, the greedy fallback and replays of
/// their deltas). Returns the number of cells whose placement changed.
int move_within_windows(Design& d, const WindowGrid& grid, Rng& rng) {
  int changed = 0;
  for (std::size_t w = 0; w < grid.windows.size(); ++w) {
    const Window& win = grid.windows[w];
    for (int inst : grid.movable[w]) {
      // Sites of `win` held by every other cell.
      const SiteMask used = fixed_site_mask(d, win, {inst});
      const int width = d.netlist().cell_of(inst).width_sites;
      std::vector<Placement> spots;
      for (int row = win.row0; row <= win.row1; ++row) {
        for (int x = win.x0; x + width <= win.x1; ++x) {
          bool free = true;
          for (int s = x; s < x + width && free; ++s) {
            free = !used[row - win.row0][s - win.x0];
          }
          if (free) spots.push_back(Placement{x, row, rng.chance(0.5)});
        }
      }
      if (spots.empty()) {
        ADD_FAILURE() << "instance " << inst << " has no free spot";
        continue;
      }
      const Placement next = spots[rng.uniform(spots.size())];
      if (!(next == d.placement(inst))) ++changed;
      d.set_placement(inst, next);
    }
  }
  return changed;
}

TEST_P(PassMask, StaysExactWhileCellsMoveInsideTheirWindows) {
  long changed = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Design d = random_design(GetParam(), seed);
    Rng rng(seed * 977);
    for (const GridShape& g : kShapes) {
      WindowGrid grid = partition_windows(d, g.tx, g.ty, g.bw, g.bh);
      const std::vector<SiteMask> masks = window_fixed_masks(grid, d);
      for (int round = 0; round < 3; ++round) {
        changed += move_within_windows(d, grid, rng);
        for (std::size_t w = 0; w < grid.windows.size(); ++w) {
          EXPECT_EQ(masks[w],
                    fixed_site_mask(d, grid.windows[w], grid.movable[w]))
              << "seed " << seed << " grid (" << g.tx << "," << g.ty << ","
              << g.bw << "," << g.bh << ") window " << w << " round "
              << round;
        }
      }
      EXPECT_TRUE(is_legal(d)) << "seed " << seed;
    }
  }
  EXPECT_GT(changed, 0);
}

INSTANTIATE_TEST_SUITE_P(Archs, PassMask,
                         ::testing::Values(CellArch::kConventional12T,
                                           CellArch::kClosedM1,
                                           CellArch::kOpenM1));

// window_signature keys the persistent solve cache, so what it hashes is
// pinned: a change that moves these values must bump cache::kSolverEpoch
// in the same change and update them here.
TEST(WindowSignature, PinnedForAFixedWindow) {
  const fault::Config saved = fault::config();
  fault::set_config(fault::Config{});
  Design d = random_design(CellArch::kClosedM1, 7);
  WindowGrid grid = partition_windows(d, 3, 1, 12, 2);
  std::vector<std::vector<int>> nets = window_incident_nets(grid, d.netlist());
  std::vector<SiteMask> masks = window_fixed_masks(grid, d);
  const std::size_t w = 6;
  ASSERT_GE(grid.movable[w].size(), 3u);

  DistOptOptions o;
  o.lx = 3;
  o.ly = 1;
  o.allow_move = true;
  o.allow_flip = false;
  o.rounding_fallback = true;
  o.greedy_fallback = true;
  o.params.alpha = 20;
  o.params.beta = 1;
  o.params.epsilon = 2;
  o.params.gamma = 3;
  o.params.gamma_closed = 1;
  o.params.delta = 1;
  o.params.max_pairs_per_net = 48;
  o.params.net_beta = {1.5, 0.5, 2};
  o.mip.max_nodes = 60;
  o.mip.time_limit_sec = 3600;
  o.mip.int_tol = 1e-6;
  o.mip.gap_tol = 1e-9;
  o.mip.use_warm_start = true;
  o.mip.lp_options.max_iterations = 200000;
  o.mip.lp_options.time_limit_sec = 0;
  o.mip.lp_options.tol = 1e-7;
  o.mip.lp_options.pivot_tol = 1e-9;
  const int self = static_cast<int>(w);
  WindowSig move = window_signature(d, grid.windows[w], grid.movable[w],
                                    grid.owner, self, nets[w], masks[w], o);
  o.lx = 0;
  o.ly = 0;
  o.allow_move = false;
  o.allow_flip = true;
  WindowSig flip = window_signature(d, grid.windows[w], grid.movable[w],
                                    grid.owner, self, nets[w], masks[w], o);
  fault::set_config(saved);

  EXPECT_EQ(move.a, 0x2749d57a8e4b0486ULL);
  EXPECT_EQ(move.b, 0xbd40af17df63d6f1ULL);
  EXPECT_EQ(flip.a, 0x298b875c0fea267fULL);
  EXPECT_EQ(flip.b, 0x9a1adaf2aedcb566ULL);
}

}  // namespace
}  // namespace vm1
