/// \file design.h
/// A Design bundles technology, library, netlist, floorplan (rows/sites)
/// and the current placement. It is the object every flow stage
/// (placer, router, VM1 optimizer) operates on.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "tech/tech.h"

namespace vm1 {

/// Placement of one instance: x in sites from the core's left edge, row
/// index from the bottom, and horizontal mirroring.
struct Placement {
  int x = 0;
  int row = 0;
  bool flipped = false;

  friend bool operator==(const Placement&, const Placement&) = default;
};

class Design {
 public:
  /// Takes ownership of library and netlist (netlist must reference lib).
  Design(std::string name, Tech tech, std::unique_ptr<Library> lib,
         std::unique_ptr<Netlist> netlist, int num_rows, int sites_per_row);

  const std::string& name() const { return name_; }
  const Tech& tech() const { return tech_; }
  Tech& tech() { return tech_; }
  const Library& library() const { return *lib_; }
  const Netlist& netlist() const { return *netlist_; }
  Netlist& netlist() { return *netlist_; }

  int num_rows() const { return num_rows_; }
  int sites_per_row() const { return sites_per_row_; }
  /// Core area in DBU: [0, sites_per_row] x [0, num_rows * row_height].
  Rect core() const;

  const Placement& placement(int inst) const { return place_[inst]; }
  void set_placement(int inst, const Placement& p) { place_[inst] = p; }
  const std::vector<Placement>& placements() const { return place_; }

  const Point& io_position(int io) const { return io_pos_[io]; }
  void set_io_position(int io, const Point& p) { io_pos_[io] = p; }

  /// Cell footprint rectangle in DBU.
  Rect cell_rect(int inst) const;

  /// Absolute position of a net connection point (instance pin x_track /
  /// M0 midpoint, or IO terminal location), in DBU. Instance pins read the
  /// netlist's flat copy of the master's offsets (Netlist::pin_offset), so
  /// this equals the Cell::pin_x_track formula without touching the library.
  Point pin_position(const NetPin& np) const {
    if (np.is_io()) return io_pos_[np.pin];
    const Placement& p = place_[np.inst];
    const PinOffset& o = netlist_->pin_offset(np.inst, np.pin);
    Coord x = static_cast<Coord>(p.x) * tech_.site_width() +
              (p.flipped ? o.width - o.x_track : o.x_track);
    Coord y = static_cast<Coord>(p.row) * tech_.row_height() + o.y_off;
    return Point{x, y};
  }

  /// Absolute horizontal projection [xmin, xmax] of an instance pin
  /// (equal endpoints for 1D ClosedM1 pins); the Cell::pin_span formula.
  std::pair<Coord, Coord> pin_span_abs(int inst, int pin) const {
    const Placement& p = place_[inst];
    const PinOffset& o = netlist_->pin_offset(inst, pin);
    Coord x = static_cast<Coord>(p.x) * tech_.site_width();
    if (p.flipped) return {x + (o.width - o.xmax), x + (o.width - o.xmin)};
    return {x + o.xmin, x + o.xmax};
  }

  /// Absolute y coordinate of an instance pin.
  Coord pin_y_abs(int inst, int pin) const {
    return static_cast<Coord>(place_[inst].row) * tech_.row_height() +
           netlist_->pin_offset(inst, pin).y_off;
  }

  /// Fraction of core sites covered by non-filler cells.
  double utilization() const;

 private:
  std::string name_;
  Tech tech_;
  std::unique_ptr<Library> lib_;
  std::unique_ptr<Netlist> netlist_;
  int num_rows_;
  int sites_per_row_;
  std::vector<Placement> place_;
  std::vector<Point> io_pos_;
};

/// Options controlling synthetic design construction.
struct DesignOptions {
  double utilization = 0.75;
  double scale = 1.0;       ///< netlist size multiplier
  std::uint64_t seed = 0;   ///< 0 = use the design's default seed
  /// Core aspect ratio width/height (in DBU). 1.0 reproduces the historical
  /// near-square floorplan bit-for-bit; >1 widens rows, <1 stacks more of
  /// them. Swept by the scenario harness (Fig. 5/8-style studies).
  double aspect = 1.0;
};

/// Builds one of the named benchmark designs ("m0", "aes", "jpeg", "vga",
/// "tiny") in the given cell architecture, with IOs distributed on the core
/// boundary. Placement is left all-zero; run a placer next.
Design make_design(const std::string& design_name, CellArch arch,
                   const DesignOptions& opts = {});

}  // namespace vm1
