/// \file def_io.h
/// DEF-like design writer.
///
/// The writer emits a DEF-flavoured text file with DIEAREA, COMPONENTS
/// (name, master, x, row, orientation), PINS, and NETS (full connectivity),
/// so a dump is a *complete* netlist snapshot: def_reader.h turns one back
/// into a standalone Design given the matching LEF library.
#pragma once

#include <string>

#include "design/design.h"

namespace vm1 {

/// Renders the design's floorplan + placement + connectivity.
std::string write_def(const Design& d);
bool write_def_file(const std::string& path, const Design& d);

}  // namespace vm1
