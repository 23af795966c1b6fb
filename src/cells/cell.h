/// \file cell.h
/// Standard-cell masters, pins, and libraries.
///
/// Replaces the proprietary imec 7nm ClosedM1/OpenM1 triple-Vt libraries.
/// Only the properties the paper's optimization consumes are modelled:
///  * cell width in placement sites;
///  * per-pin access geometry — for ClosedM1 the x offset of the pin's
///    vertical M1 track (pins are 1D and sit on the site grid); for OpenM1
///    the [xmin, xmax] horizontal projection of the pin's M0 segment;
///  * physical pin shapes (for the router's blockage maps);
///  * simple electrical data (input cap, drive resistance, intrinsic delay,
///    leakage) for the STA/power columns of Table 2.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tech/tech.h"
#include "util/geometry.h"

namespace vm1 {

enum class PinDir { kInput, kOutput };

/// One physical pin shape, relative to the unflipped cell origin
/// (lower-left corner of the cell).
struct PinShape {
  LayerId layer;
  Rect box;
};

/// A logical pin of a cell master.
struct PinInfo {
  std::string name;
  PinDir dir = PinDir::kInput;
  std::vector<PinShape> shapes;

  /// ClosedM1: x offset (DBU) of the pin's vertical M1 track.
  /// OpenM1: x offset of the pin's M0 segment midpoint (rounded down).
  Coord x_track = 0;
  /// Horizontal projection of the pin (equal endpoints for ClosedM1 1D pins).
  Coord xmin = 0;
  Coord xmax = 0;
  /// Vertical position of the pin inside the row (DBU from row bottom).
  Coord y_off = 0;
  /// Input capacitance (output pins: self-loading).
  double cap = 1.0;
};

/// Threshold-voltage flavour (triple-Vt library).
enum class Vt { kLvt = 0, kSvt = 1, kHvt = 2 };

const char* to_string(Vt vt);

/// A standard-cell master.
struct Cell {
  std::string name;
  CellArch arch = CellArch::kClosedM1;
  int width_sites = 1;
  bool sequential = false;
  bool filler = false;
  Vt vt = Vt::kSvt;
  std::vector<PinInfo> pins;

  /// Electrical model: delay(load) = intrinsic + drive_res * load_cap.
  double drive_res = 1.0;
  double intrinsic_delay = 1.0;
  double leakage = 1.0;

  /// Index of a pin by name; -1 if absent.
  int pin_index(const std::string& pin_name) const;
  /// Index of the (single) output pin; -1 for fillers.
  int output_pin() const;

  Coord width_dbu(const Tech& tech) const {
    return width_sites * tech.site_width();
  }

  /// Pin x-track offset accounting for horizontal flip (mirror about the
  /// cell's vertical center line).
  Coord pin_x_track(int pin, bool flipped) const;
  /// Pin horizontal projection [xmin, xmax] accounting for flip.
  std::pair<Coord, Coord> pin_span(int pin, bool flipped) const;
};

/// A collection of cell masters for one architecture.
class Library {
 public:
  explicit Library(CellArch arch = CellArch::kClosedM1) : arch_(arch) {}

  CellArch arch() const { return arch_; }
  int add_cell(Cell cell);
  int num_cells() const { return static_cast<int>(cells_.size()); }
  const Cell& cell(int idx) const { return cells_[idx]; }
  const std::vector<Cell>& cells() const { return cells_; }
  /// Index by master name; -1 if absent.
  int find(const std::string& name) const;

 private:
  CellArch arch_;
  std::vector<Cell> cells_;
};

}  // namespace vm1
