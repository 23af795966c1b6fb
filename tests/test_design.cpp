#include "design/design.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "cells/library_builder.h"

namespace vm1 {
namespace {

TEST(Design, MakeDesignBasics) {
  DesignOptions opts;
  opts.utilization = 0.75;
  Design d = make_design("tiny", CellArch::kClosedM1, opts);
  EXPECT_GT(d.num_rows(), 1);
  EXPECT_GT(d.sites_per_row(), 15);
  EXPECT_EQ(d.library().arch(), CellArch::kClosedM1);
  EXPECT_GT(d.netlist().num_instances(), 50);
  // Achieved utilization is close to the request (floorplan rounding).
  EXPECT_NEAR(d.utilization(), 0.75, 0.08);
}

TEST(Design, CoreIsRowAligned) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  Rect core = d.core();
  EXPECT_EQ(core.lx, 0);
  EXPECT_EQ(core.ly, 0);
  EXPECT_EQ(core.hy, d.num_rows() * d.tech().row_height());
  EXPECT_EQ(core.hx, d.sites_per_row() * d.tech().site_width());
}

TEST(Design, CellRectTracksPlacement) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  const Cell& c = d.netlist().cell_of(0);
  d.set_placement(0, Placement{5, 2, false});
  Rect r = d.cell_rect(0);
  EXPECT_EQ(r.lx, 5);
  EXPECT_EQ(r.ly, 2 * d.tech().row_height());
  EXPECT_EQ(r.width(), c.width_sites);
  EXPECT_EQ(r.height(), d.tech().row_height());
}

TEST(Design, PinPositionFollowsFlip) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  const Netlist& nl = d.netlist();
  // Find an instance with pins.
  int inst = -1;
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (!nl.cell_of(i).pins.empty()) {
      inst = i;
      break;
    }
  }
  ASSERT_GE(inst, 0);
  const Cell& c = nl.cell_of(inst);
  d.set_placement(inst, Placement{10, 1, false});
  Point straight = d.pin_position(NetPin{inst, 0});
  d.set_placement(inst, Placement{10, 1, true});
  Point flipped = d.pin_position(NetPin{inst, 0});
  EXPECT_EQ(straight.y, flipped.y);
  EXPECT_EQ((straight.x - 10) + (flipped.x - 10), c.width_sites);
}

TEST(Design, PinSpanAbsolute) {
  Design d = make_design("tiny", CellArch::kOpenM1);
  const Netlist& nl = d.netlist();
  int inst = 0;
  ASSERT_FALSE(nl.cell_of(inst).pins.empty());
  d.set_placement(inst, Placement{7, 0, false});
  auto [lo, hi] = d.pin_span_abs(inst, 0);
  const PinInfo& p = nl.cell_of(inst).pins[0];
  EXPECT_EQ(lo, 7 + p.xmin);
  EXPECT_EQ(hi, 7 + p.xmax);
}

TEST(Design, IoPositionsOnBoundary) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  Rect core = d.core();
  for (int io = 0; io < d.netlist().num_ios(); ++io) {
    const Point& p = d.io_position(io);
    bool on_edge = p.x == core.lx || p.x == core.hx || p.y == core.ly ||
                   p.y == core.hy;
    EXPECT_TRUE(on_edge) << "io " << io << " at " << to_string(p);
  }
}

TEST(Design, ScaleGrowsDesign) {
  DesignOptions small_opts, big_opts;
  small_opts.scale = 0.5;
  big_opts.scale = 1.5;
  Design small = make_design("tiny", CellArch::kClosedM1, small_opts);
  Design big = make_design("tiny", CellArch::kClosedM1, big_opts);
  EXPECT_LT(small.netlist().num_instances(), big.netlist().num_instances());
}

TEST(Design, UtilizationKnob) {
  DesignOptions lo, hi;
  lo.utilization = 0.6;
  hi.utilization = 0.9;
  Design dl = make_design("tiny", CellArch::kClosedM1, lo);
  Design dh = make_design("tiny", CellArch::kClosedM1, hi);
  EXPECT_LT(dl.utilization(), dh.utilization());
}

// Design's pin accessors read the netlist's flat copy of each master's pin
// offsets; they must equal the Cell formulas for every pin of every master
// of every architecture, flipped and unflipped, at any origin.
TEST(PinGeometry, FlatOffsetsMatchTheMaster) {
  const CellArch archs[] = {CellArch::kConventional12T, CellArch::kClosedM1,
                            CellArch::kOpenM1};
  for (CellArch arch : archs) {
    auto lib = std::make_unique<Library>(build_library(arch));
    auto nl = std::make_unique<Netlist>(lib.get());
    for (int c = 0; c < lib->num_cells(); ++c) {
      nl->add_instance(lib->cell(c).name, c);
    }
    Design d("masters", Tech::make_7nm(), std::move(lib), std::move(nl), 8,
             64);
    const Netlist& n = d.netlist();
    const Coord sw = d.tech().site_width();
    const Coord rh = d.tech().row_height();
    int pins = 0;
    int flipped_shifted = 0;
    for (int i = 0; i < n.num_instances(); ++i) {
      const Cell& c = n.cell_of(i);
      for (bool flipped : {false, true}) {
        const Placement pl{3 + i % 29, i % 8, flipped};
        d.set_placement(i, pl);
        const Coord x0 = static_cast<Coord>(pl.x) * sw;
        const Coord y0 = static_cast<Coord>(pl.row) * rh;
        for (int p = 0; p < static_cast<int>(c.pins.size()); ++p) {
          const std::string where = std::string(to_string(arch)) + " " +
                                    c.name + " pin " + c.pins[p].name +
                                    (flipped ? " flipped" : "");
          const Point pos = d.pin_position(NetPin{i, p});
          EXPECT_EQ(pos.x, x0 + c.pin_x_track(p, flipped)) << where;
          EXPECT_EQ(pos.y, y0 + c.pins[p].y_off) << where;
          EXPECT_EQ(d.pin_y_abs(i, p), y0 + c.pins[p].y_off) << where;
          const auto [lo, hi] = c.pin_span(p, flipped);
          EXPECT_EQ(d.pin_span_abs(i, p), std::make_pair(x0 + lo, x0 + hi))
              << where;
          ++pins;
          if (flipped && c.pin_x_track(p, true) != c.pin_x_track(p, false)) {
            ++flipped_shifted;
          }
        }
      }
    }
    EXPECT_GT(pins, 100) << to_string(arch);
    EXPECT_GT(flipped_shifted, 0) << to_string(arch) << ": no pin moves on flip";
  }
}

}  // namespace
}  // namespace vm1
