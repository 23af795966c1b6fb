#include "io/def_io.h"

#include <fstream>
#include <sstream>

namespace vm1 {

std::string write_def(const Design& d) {
  const Netlist& nl = d.netlist();
  std::ostringstream os;
  os << "VERSION 5.7 ;\nDESIGN " << d.name() << " ;\n";
  Rect core = d.core();
  os << "DIEAREA ( " << core.lx << " " << core.ly << " ) ( " << core.hx
     << " " << core.hy << " ) ;\n";
  os << "ROWS " << d.num_rows() << " SITES " << d.sites_per_row() << " ;\n";
  os << "COMPONENTS " << nl.num_instances() << " ;\n";
  for (int i = 0; i < nl.num_instances(); ++i) {
    const Placement& p = d.placement(i);
    os << "- " << nl.instance(i).name << " " << nl.cell_of(i).name
       << " + PLACED ( " << p.x << " " << p.row << " ) "
       << (p.flipped ? "FS" : "N") << " ;\n";
  }
  os << "END COMPONENTS\n";
  os << "PINS " << nl.num_ios() << " ;\n";
  for (int io = 0; io < nl.num_ios(); ++io) {
    const Point& pos = d.io_position(io);
    os << "- " << nl.io(io).name << " + "
       << (nl.io(io).is_input ? "INPUT" : "OUTPUT") << " ( " << pos.x << " "
       << pos.y << " ) ;\n";
  }
  os << "END PINS\n";
  // Full connectivity: connection order (driver first when one exists) is
  // preserved so the def_reader reconstructs identical net pin indices.
  os << "NETS " << nl.num_nets() << " ;\n";
  for (int n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    os << "- " << net.name;
    for (const NetPin& np : net.pins) {
      if (np.is_io()) {
        os << " ( PIN " << nl.io(np.pin).name << " )";
      } else {
        os << " ( " << nl.instance(np.inst).name << " "
           << nl.cell_of(np.inst).pins[np.pin].name << " )";
      }
    }
    if (net.is_clock) os << " + USE CLOCK";
    os << " ;\n";
  }
  os << "END NETS\n";
  os << "END DESIGN\n";
  return os.str();
}

bool write_def_file(const std::string& path, const Design& d) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_def(d);
  return static_cast<bool>(out);
}

}  // namespace vm1
