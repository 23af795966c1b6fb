#include "cells/library_builder.h"

#include <array>
#include <cassert>

namespace vm1 {
namespace {

/// Prototype pin: name, direction, ClosedM1 M1-track offset (sites), and
/// OpenM1 M0 segment [xmin, xmax] with its M0 y track.
struct ProtoPin {
  const char* name;
  PinDir dir;
  Coord x_track;
  Coord xmin, xmax;
  Coord y_off;
  double cap;
};

struct ProtoCell {
  const char* name;
  int width;
  bool sequential;
  double drive_res;
  double intrinsic;
  double leakage;
  std::vector<ProtoPin> pins;
};

// The y offsets place M0 input segments on tracks 3/6 and outputs on track
// 9 so overlapping x spans never collide on the same M0 track. ClosedM1 M1
// pin stubs span y in [3, 11] inside the 15-DBU row.
const std::vector<ProtoCell>& prototypes() {
  static const std::vector<ProtoCell> kProtos = {
      {"INV_X1", 3, false, 2.0, 1.0, 1.0,
       {{"A", PinDir::kInput, 1, 0, 1, 3, 1.0},
        {"ZN", PinDir::kOutput, 2, 1, 3, 9, 0.3}}},
      {"INV_X2", 4, false, 1.2, 0.9, 1.8,
       {{"A", PinDir::kInput, 1, 0, 1, 3, 1.8},
        {"ZN", PinDir::kOutput, 3, 1, 4, 9, 0.5}}},
      {"BUF_X1", 4, false, 1.8, 1.6, 1.4,
       {{"A", PinDir::kInput, 1, 0, 1, 3, 1.0},
        {"Z", PinDir::kOutput, 3, 2, 4, 9, 0.3}}},
      {"NAND2_X1", 4, false, 2.2, 1.2, 1.5,
       {{"A1", PinDir::kInput, 1, 0, 1, 3, 1.1},
        {"A2", PinDir::kInput, 2, 1, 2, 6, 1.1},
        {"ZN", PinDir::kOutput, 3, 2, 4, 9, 0.3}}},
      {"NAND2_X2", 5, false, 1.3, 1.1, 2.6,
       {{"A1", PinDir::kInput, 1, 0, 1, 3, 2.0},
        {"A2", PinDir::kInput, 2, 1, 2, 6, 2.0},
        {"ZN", PinDir::kOutput, 4, 2, 5, 9, 0.5}}},
      {"NOR2_X1", 4, false, 2.4, 1.3, 1.5,
       {{"A1", PinDir::kInput, 1, 0, 1, 3, 1.1},
        {"A2", PinDir::kInput, 2, 1, 2, 6, 1.1},
        {"ZN", PinDir::kOutput, 3, 2, 4, 9, 0.3}}},
      {"AOI21_X1", 5, false, 2.6, 1.5, 1.8,
       {{"A", PinDir::kInput, 1, 0, 1, 3, 1.2},
        {"B", PinDir::kInput, 2, 1, 2, 6, 1.2},
        {"C", PinDir::kInput, 3, 2, 3, 3, 1.2},
        {"ZN", PinDir::kOutput, 4, 3, 5, 9, 0.35}}},
      {"OAI21_X1", 5, false, 2.6, 1.5, 1.8,
       {{"A", PinDir::kInput, 1, 0, 1, 3, 1.2},
        {"B", PinDir::kInput, 2, 1, 2, 6, 1.2},
        {"C", PinDir::kInput, 3, 2, 3, 3, 1.2},
        {"ZN", PinDir::kOutput, 4, 3, 5, 9, 0.35}}},
      {"XOR2_X1", 6, false, 3.0, 2.2, 2.2,
       {{"A", PinDir::kInput, 1, 0, 2, 3, 1.4},
        {"B", PinDir::kInput, 3, 2, 4, 6, 1.4},
        {"Z", PinDir::kOutput, 5, 4, 6, 9, 0.4}}},
      {"MUX2_X1", 6, false, 2.8, 2.0, 2.0,
       {{"D0", PinDir::kInput, 1, 0, 1, 3, 1.2},
        {"D1", PinDir::kInput, 2, 1, 2, 6, 1.2},
        {"S", PinDir::kInput, 4, 3, 4, 3, 1.3},
        {"Z", PinDir::kOutput, 5, 4, 6, 9, 0.4}}},
      {"DFF_X1", 8, true, 2.5, 3.0, 3.5,
       {{"D", PinDir::kInput, 1, 0, 2, 3, 1.2},
        {"CK", PinDir::kInput, 3, 2, 4, 6, 1.5},
        {"Q", PinDir::kOutput, 6, 5, 8, 9, 0.4}}},
  };
  return kProtos;
}

struct VtFlavor {
  Vt vt;
  const char* suffix;
  double res_scale;
  double delay_scale;
  double leak_scale;
};

constexpr std::array<VtFlavor, 3> kVts = {{
    {Vt::kLvt, "_LVT", 0.80, 0.85, 4.0},
    {Vt::kSvt, "_SVT", 1.00, 1.00, 1.0},
    {Vt::kHvt, "_HVT", 1.30, 1.25, 0.3},
}};

PinInfo make_pin(const ProtoPin& pp, CellArch arch) {
  PinInfo pin;
  pin.name = pp.name;
  pin.dir = pp.dir;
  pin.cap = pp.cap;
  pin.y_off = pp.y_off;
  if (arch == CellArch::kOpenM1) {
    pin.xmin = pp.xmin;
    pin.xmax = pp.xmax;
    pin.x_track = (pp.xmin + pp.xmax) / 2;
    pin.shapes.push_back(
        {LayerId::kM0, Rect(pp.xmin, pp.y_off, pp.xmax, pp.y_off)});
  } else {
    // ClosedM1 and conventional: 1D vertical M1 stub on the site grid.
    pin.x_track = pp.x_track;
    pin.xmin = pin.xmax = pp.x_track;
    pin.shapes.push_back(
        {LayerId::kM1, Rect(pp.x_track, 3, pp.x_track, 11)});
  }
  return pin;
}

Cell make_filler(CellArch arch, int width) {
  Cell c;
  c.name = "FILL" + std::to_string(width);
  c.arch = arch;
  c.width_sites = width;
  c.filler = true;
  c.drive_res = 0;
  c.intrinsic_delay = 0;
  c.leakage = 0.05 * width;
  return c;
}

}  // namespace

Library build_library(CellArch arch) {
  Library lib(arch);
  for (const ProtoCell& proto : prototypes()) {
    for (const VtFlavor& vt : kVts) {
      Cell c;
      c.name = std::string(proto.name) + vt.suffix;
      c.arch = arch;
      c.width_sites = proto.width;
      c.sequential = proto.sequential;
      c.vt = vt.vt;
      c.drive_res = proto.drive_res * vt.res_scale;
      c.intrinsic_delay = proto.intrinsic * vt.delay_scale;
      c.leakage = proto.leakage * vt.leak_scale;
      for (const ProtoPin& pp : proto.pins) {
        assert(pp.x_track > 0 && pp.x_track < proto.width);
        assert(pp.xmin >= 0 && pp.xmax <= proto.width && pp.xmin < pp.xmax);
        c.pins.push_back(make_pin(pp, arch));
      }
      lib.add_cell(std::move(c));
    }
  }
  lib.add_cell(make_filler(arch, 1));
  lib.add_cell(make_filler(arch, 2));
  lib.add_cell(make_filler(arch, 4));
  return lib;
}

}  // namespace vm1
