#include "netlist/netlist.h"

#include <cassert>

namespace vm1 {

int Netlist::add_instance(const std::string& name, int cell) {
  assert(cell >= 0 && cell < lib_->num_cells());
  const Cell& c = lib_->cell(cell);
  instances_.push_back(Instance{name, cell});
  pin_net_.emplace_back(c.pins.size(), -1);
  inst_nets_.emplace_back();
  pin_begin_.push_back(static_cast<int>(pin_offsets_.size()));
  for (const PinInfo& p : c.pins) {
    pin_offsets_.push_back(PinOffset{p.x_track, p.xmin, p.xmax, p.y_off,
                                     static_cast<Coord>(c.width_sites)});
  }
  return num_instances() - 1;
}

int Netlist::add_io(const std::string& name, bool is_input) {
  ios_.push_back(IoTerminal{name, is_input});
  return num_ios() - 1;
}

int Netlist::add_net(const std::string& name, bool is_clock) {
  Net n;
  n.name = name;
  n.is_clock = is_clock;
  nets_.push_back(std::move(n));
  return num_nets() - 1;
}

void Netlist::connect(int net, NetPin pin) {
  assert(net >= 0 && net < num_nets());
  if (!pin.is_io()) {
    assert(pin.inst < num_instances());
    assert(pin.pin < static_cast<int>(cell_of(pin.inst).pins.size()));
    assert(pin_net_[pin.inst][pin.pin] == -1 && "pin already connected");
    pin_net_[pin.inst][pin.pin] = net;
    std::vector<int>& incident = inst_nets_[pin.inst];
    bool seen = false;
    for (int n : incident) {
      if (n == net) {
        seen = true;
        break;
      }
    }
    if (!seen) incident.push_back(net);
  }
  nets_[net].pins.push_back(pin);
}

long Netlist::total_sites() const {
  long total = 0;
  for (const auto& inst : instances_) {
    const Cell& c = lib_->cell(inst.cell);
    if (!c.filler) total += c.width_sites;
  }
  return total;
}

std::vector<std::string> Netlist::validate() const {
  std::vector<std::string> problems;
  for (int n = 0; n < num_nets(); ++n) {
    int drivers = 0;
    for (const NetPin& p : nets_[n].pins) {
      bool is_driver = p.is_io() ? ios_[p.pin].is_input
                                 : cell_of(p.inst).pins[p.pin].dir ==
                                       PinDir::kOutput;
      drivers += is_driver ? 1 : 0;
      if (!p.is_io() && pin_net_[p.inst][p.pin] != n) {
        problems.push_back("net " + nets_[n].name +
                           ": inconsistent pin_net for " +
                           instances_[p.inst].name);
      }
    }
    if (drivers > 1) {
      problems.push_back("net " + nets_[n].name + " has multiple drivers");
    }
    if (nets_[n].routable() && drivers == 0) {
      problems.push_back("net " + nets_[n].name + " has no driver");
    }
  }
  for (int i = 0; i < num_instances(); ++i) {
    const Cell& c = cell_of(i);
    for (std::size_t p = 0; p < c.pins.size(); ++p) {
      if (c.pins[p].dir == PinDir::kInput && pin_net_[i][p] < 0 &&
          !c.filler) {
        problems.push_back("instance " + instances_[i].name + " pin " +
                           c.pins[p].name + " unconnected");
      }
    }
  }
  return problems;
}

}  // namespace vm1
