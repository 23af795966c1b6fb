#include "design/design.h"

#include <cassert>
#include <cmath>

#include "cells/library_builder.h"
#include "netlist/generator.h"

namespace vm1 {

Design::Design(std::string name, Tech tech, std::unique_ptr<Library> lib,
               std::unique_ptr<Netlist> netlist, int num_rows,
               int sites_per_row)
    : name_(std::move(name)),
      tech_(std::move(tech)),
      lib_(std::move(lib)),
      netlist_(std::move(netlist)),
      num_rows_(num_rows),
      sites_per_row_(sites_per_row) {
  place_.resize(netlist_->num_instances());
  io_pos_.resize(netlist_->num_ios());
}

Rect Design::core() const {
  return Rect(0, 0, static_cast<Coord>(sites_per_row_) * tech_.site_width(),
              static_cast<Coord>(num_rows_) * tech_.row_height());
}

Rect Design::cell_rect(int inst) const {
  const Placement& p = place_[inst];
  const Cell& c = netlist_->cell_of(inst);
  Coord x = static_cast<Coord>(p.x) * tech_.site_width();
  Coord y = static_cast<Coord>(p.row) * tech_.row_height();
  return Rect(x, y, x + c.width_dbu(tech_), y + tech_.row_height());
}

double Design::utilization() const {
  double used = static_cast<double>(netlist_->total_sites());
  double avail =
      static_cast<double>(num_rows_) * static_cast<double>(sites_per_row_);
  return avail > 0 ? used / avail : 0;
}

Design make_design(const std::string& design_name, CellArch arch,
                   const DesignOptions& opts) {
  auto lib = std::make_unique<Library>(build_library(arch));

  GeneratorConfig gcfg = design_config(design_name, opts.scale);
  if (opts.seed != 0) gcfg.seed = opts.seed;
  auto nl = std::make_unique<Netlist>(generate_netlist(*lib, gcfg));

  Tech tech = Tech::make_7nm();

  // Floorplan: core with width/height ~= opts.aspect (in DBU) at the
  // requested utilization; aspect 1.0 is the historical near-square shape.
  double total_sites = static_cast<double>(nl->total_sites());
  double core_sites = total_sites / opts.utilization;
  double h = static_cast<double>(tech.row_height());
  int sites_per_row = std::max(
      16, static_cast<int>(std::ceil(std::sqrt(core_sites * h * opts.aspect))));
  int num_rows = std::max(
      2, static_cast<int>(std::ceil(core_sites / sites_per_row)));

  Design d(design_name + "_" + to_string(arch), std::move(tech),
           std::move(lib), std::move(nl), num_rows, sites_per_row);

  // Distribute IO terminals evenly along the four core edges.
  const Netlist& netlist = d.netlist();
  Rect core = d.core();
  int n_io = netlist.num_ios();
  for (int i = 0; i < n_io; ++i) {
    double t = (i + 0.5) / n_io * 4.0;  // perimeter parameter in [0,4)
    Point p;
    if (t < 1.0) {
      p = {static_cast<Coord>(core.hx * t), core.ly};
    } else if (t < 2.0) {
      p = {core.hx, static_cast<Coord>(core.hy * (t - 1.0))};
    } else if (t < 3.0) {
      p = {static_cast<Coord>(core.hx * (3.0 - t)), core.hy};
    } else {
      p = {core.lx, static_cast<Coord>(core.hy * (4.0 - t))};
    }
    d.set_io_position(i, p);
  }
  return d;
}

}  // namespace vm1
