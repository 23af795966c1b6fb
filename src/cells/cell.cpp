#include "cells/cell.h"

namespace vm1 {

const char* to_string(Vt vt) {
  switch (vt) {
    case Vt::kLvt:
      return "LVT";
    case Vt::kSvt:
      return "SVT";
    case Vt::kHvt:
      return "HVT";
  }
  return "?";
}

int Cell::pin_index(const std::string& pin_name) const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].name == pin_name) return static_cast<int>(i);
  }
  return -1;
}

int Cell::output_pin() const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].dir == PinDir::kOutput) return static_cast<int>(i);
  }
  return -1;
}

Coord Cell::pin_x_track(int pin, bool flipped) const {
  const PinInfo& p = pins[pin];
  if (!flipped) return p.x_track;
  return static_cast<Coord>(width_sites) - p.x_track;
}

std::pair<Coord, Coord> Cell::pin_span(int pin, bool flipped) const {
  const PinInfo& p = pins[pin];
  if (!flipped) return {p.xmin, p.xmax};
  Coord w = static_cast<Coord>(width_sites);
  return {w - p.xmax, w - p.xmin};
}

int Library::add_cell(Cell cell) {
  cells_.push_back(std::move(cell));
  return static_cast<int>(cells_.size()) - 1;
}

int Library::find(const std::string& name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace vm1
