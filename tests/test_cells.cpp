#include "cells/library_builder.h"

#include <gtest/gtest.h>

#include <set>

namespace vm1 {
namespace {

class LibraryPerArch : public ::testing::TestWithParam<CellArch> {};

TEST_P(LibraryPerArch, HasAllMastersInThreeVts) {
  Library lib = build_library(GetParam());
  EXPECT_EQ(lib.arch(), GetParam());
  for (const char* base :
       {"INV_X1", "INV_X2", "BUF_X1", "NAND2_X1", "NAND2_X2", "NOR2_X1",
        "AOI21_X1", "OAI21_X1", "XOR2_X1", "MUX2_X1", "DFF_X1"}) {
    for (const char* vt : {"_LVT", "_SVT", "_HVT"}) {
      EXPECT_GE(lib.find(std::string(base) + vt), 0)
          << base << vt << " missing";
    }
  }
  EXPECT_GE(lib.find("FILL1"), 0);
  EXPECT_GE(lib.find("FILL2"), 0);
  EXPECT_GE(lib.find("FILL4"), 0);
}

TEST_P(LibraryPerArch, EveryLogicCellHasOneOutput) {
  Library lib = build_library(GetParam());
  for (const Cell& c : lib.cells()) {
    if (c.filler) {
      EXPECT_TRUE(c.pins.empty());
      continue;
    }
    int outputs = 0;
    for (const PinInfo& p : c.pins) {
      if (p.dir == PinDir::kOutput) ++outputs;
    }
    EXPECT_EQ(outputs, 1) << c.name;
  }
}

TEST_P(LibraryPerArch, PinGeometryInsideCell) {
  Library lib = build_library(GetParam());
  for (const Cell& c : lib.cells()) {
    for (const PinInfo& p : c.pins) {
      EXPECT_GE(p.xmin, 0) << c.name << "/" << p.name;
      EXPECT_LE(p.xmax, c.width_sites) << c.name << "/" << p.name;
      EXPECT_GE(p.x_track, 0);
      EXPECT_LE(p.x_track, c.width_sites);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchs, LibraryPerArch,
                         ::testing::Values(CellArch::kClosedM1,
                                           CellArch::kOpenM1,
                                           CellArch::kConventional12T));

TEST(Cells, ClosedM1PinsAre1DOnSiteGrid) {
  Library lib = build_library(CellArch::kClosedM1);
  for (const Cell& c : lib.cells()) {
    for (const PinInfo& p : c.pins) {
      EXPECT_EQ(p.xmin, p.xmax) << c.name << "/" << p.name;       // 1D pin
      EXPECT_EQ(p.xmin, p.x_track);
      // Interior track: boundary tracks carry the PG pins.
      EXPECT_GT(p.x_track, 0) << c.name << "/" << p.name;
      EXPECT_LT(p.x_track, c.width_sites) << c.name << "/" << p.name;
      ASSERT_EQ(p.shapes.size(), 1u);
      EXPECT_EQ(p.shapes[0].layer, LayerId::kM1);
      EXPECT_EQ(p.shapes[0].box.width(), 0);  // vertical segment
    }
  }
}

TEST(Cells, OpenM1PinsAreHorizontalM0Segments) {
  Library lib = build_library(CellArch::kOpenM1);
  for (const Cell& c : lib.cells()) {
    for (const PinInfo& p : c.pins) {
      EXPECT_LT(p.xmin, p.xmax) << c.name << "/" << p.name;
      ASSERT_EQ(p.shapes.size(), 1u);
      EXPECT_EQ(p.shapes[0].layer, LayerId::kM0);
      EXPECT_EQ(p.shapes[0].box.height(), 0);  // horizontal segment
    }
  }
}

TEST(Cells, OpenM1PinsOnSameM0TrackDoNotOverlap) {
  Library lib = build_library(CellArch::kOpenM1);
  for (const Cell& c : lib.cells()) {
    for (std::size_t i = 0; i < c.pins.size(); ++i) {
      for (std::size_t j = i + 1; j < c.pins.size(); ++j) {
        if (c.pins[i].y_off != c.pins[j].y_off) continue;
        Coord ov = interval_overlap(c.pins[i].xmin, c.pins[i].xmax,
                                    c.pins[j].xmin, c.pins[j].xmax);
        EXPECT_LE(ov, 0) << c.name << ": " << c.pins[i].name << " vs "
                         << c.pins[j].name;
      }
    }
  }
}

TEST(Cells, FlipMirrorsPinTrack) {
  Library lib = build_library(CellArch::kClosedM1);
  const Cell& inv = lib.cell(lib.find("INV_X1_SVT"));
  int a = inv.pin_index("A");
  ASSERT_GE(a, 0);
  Coord straight = inv.pin_x_track(a, false);
  Coord flipped = inv.pin_x_track(a, true);
  EXPECT_EQ(straight + flipped, inv.width_sites);
}

TEST(Cells, FlipMirrorsPinSpan) {
  Library lib = build_library(CellArch::kOpenM1);
  const Cell& nand = lib.cell(lib.find("NAND2_X1_SVT"));
  int zn = nand.pin_index("ZN");
  ASSERT_GE(zn, 0);
  auto [lo, hi] = nand.pin_span(zn, false);
  auto [flo, fhi] = nand.pin_span(zn, true);
  EXPECT_EQ(flo, nand.width_sites - hi);
  EXPECT_EQ(fhi, nand.width_sites - lo);
  EXPECT_EQ(hi - lo, fhi - flo);  // span length preserved
}

TEST(Cells, DoubleFlipIsIdentity) {
  Library lib = build_library(CellArch::kClosedM1);
  for (const Cell& c : lib.cells()) {
    for (std::size_t p = 0; p < c.pins.size(); ++p) {
      Coord x = c.pin_x_track(static_cast<int>(p), false);
      Coord xf = c.pin_x_track(static_cast<int>(p), true);
      EXPECT_EQ(c.width_sites - xf, x);
    }
  }
}

TEST(Cells, VtScalesLeakageAndDelay) {
  Library lib = build_library(CellArch::kClosedM1);
  const Cell& lvt = lib.cell(lib.find("INV_X1_LVT"));
  const Cell& svt = lib.cell(lib.find("INV_X1_SVT"));
  const Cell& hvt = lib.cell(lib.find("INV_X1_HVT"));
  EXPECT_GT(lvt.leakage, svt.leakage);
  EXPECT_GT(svt.leakage, hvt.leakage);
  EXPECT_LT(lvt.intrinsic_delay, svt.intrinsic_delay);
  EXPECT_LT(svt.intrinsic_delay, hvt.intrinsic_delay);
}

TEST(Cells, LibraryLookup) {
  Library lib = build_library(CellArch::kOpenM1);
  EXPECT_EQ(lib.find("NO_SUCH_CELL"), -1);
  int idx = lib.find("DFF_X1_SVT");
  ASSERT_GE(idx, 0);
  EXPECT_TRUE(lib.cell(idx).sequential);
  EXPECT_EQ(lib.cell(idx).name, "DFF_X1_SVT");
}

TEST(Cells, UniqueNames) {
  Library lib = build_library(CellArch::kClosedM1);
  std::set<std::string> names;
  for (const Cell& c : lib.cells()) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate " << c.name;
  }
}

}  // namespace
}  // namespace vm1
