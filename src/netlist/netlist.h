/// \file netlist.h
/// Gate-level netlist: instances of library cells, nets, and primary IOs.
#pragma once

#include <string>
#include <vector>

#include "cells/cell.h"

namespace vm1 {

/// Reference to one net connection point: a pin of an instance, or a
/// primary IO terminal when inst < 0 (then `pin` indexes Netlist::ios()).
struct NetPin {
  int inst = -1;
  int pin = 0;

  bool is_io() const { return inst < 0; }
  friend bool operator==(const NetPin&, const NetPin&) = default;
};

struct Net {
  std::string name;
  /// All connection points; pins[0] is the driver when one exists.
  std::vector<NetPin> pins;
  bool is_clock = false;

  int num_pins() const { return static_cast<int>(pins.size()); }
  /// Nets with < 2 pins are unconnected stubs and are skipped by
  /// placement/routing metrics.
  bool routable() const { return pins.size() >= 2; }
};

struct Instance {
  std::string name;
  int cell = -1;  ///< index into the library
};

struct IoTerminal {
  std::string name;
  bool is_input = true;  ///< drives the net (true) or sinks it (false)
};

/// Access geometry of one instance pin, relative to the unflipped cell
/// origin: the master's PinInfo offsets plus the master's width in sites
/// (the flip mirrors about it). Netlist::add_instance copies these from the
/// library, so a pin read is one flat lookup; library cells are immutable
/// once added, so the copy never goes stale.
struct PinOffset {
  Coord x_track = 0;
  Coord xmin = 0;
  Coord xmax = 0;
  Coord y_off = 0;
  Coord width = 0;
};

/// Netlist over a fixed Library. Connectivity is stored both as net->pins
/// and instance-pin->net for O(1) lookups.
class Netlist {
 public:
  explicit Netlist(const Library* lib) : lib_(lib) {}

  const Library& library() const { return *lib_; }

  int add_instance(const std::string& name, int cell);
  int add_io(const std::string& name, bool is_input);
  int add_net(const std::string& name, bool is_clock = false);
  /// Connects (inst, pin) to net. A pin may join at most one net.
  void connect(int net, NetPin pin);

  int num_instances() const { return static_cast<int>(instances_.size()); }
  int num_nets() const { return static_cast<int>(nets_.size()); }
  int num_ios() const { return static_cast<int>(ios_.size()); }

  const Instance& instance(int i) const { return instances_[i]; }
  const Net& net(int n) const { return nets_[n]; }
  const IoTerminal& io(int i) const { return ios_[i]; }
  const Cell& cell_of(int inst) const {
    return lib_->cell(instances_[inst].cell);
  }

  /// Net connected at (inst, pin); -1 when unconnected.
  int net_at(int inst, int pin) const { return pin_net_[inst][pin]; }

  /// Geometry of (inst, pin), copied from the master by add_instance.
  const PinOffset& pin_offset(int inst, int pin) const {
    return pin_offsets_[static_cast<std::size_t>(pin_begin_[inst] + pin)];
  }

  /// Distinct nets incident to an instance, in first-connection order.
  /// Maintained incrementally by connect(); O(1) query.
  const std::vector<int>& nets_of(int inst) const { return inst_nets_[inst]; }

  /// Total cell area in sites (fillers excluded).
  long total_sites() const;

  /// Sanity checks: every net has at most one driver, every connection is
  /// consistent. Returns a list of human-readable problems (empty = OK).
  std::vector<std::string> validate() const;

 private:
  const Library* lib_;
  std::vector<Instance> instances_;
  std::vector<Net> nets_;
  std::vector<IoTerminal> ios_;
  std::vector<std::vector<int>> pin_net_;    ///< [inst][pin] -> net or -1
  std::vector<std::vector<int>> inst_nets_;  ///< [inst] -> distinct nets
  /// Every instance's pins back to back; instance i's start at
  /// pin_begin_[i].
  std::vector<PinOffset> pin_offsets_;
  std::vector<int> pin_begin_;
};

}  // namespace vm1
