/// \file lef_reader.h
/// LEF macro/pin reader: parses a LEF-flavoured library description (the
/// format write_lef emits, a practical subset of LEF 5.7) back into a
/// Library + validated Tech, so real cell libraries can enter the flow
/// without the synthetic generator.
///
/// Supported constructs: VERSION, UNITS, SITE, LAYER (ROUTING), MACRO with
/// CLASS CORE [SPACER] / SIZE / PIN { DIRECTION, PORT LAYER RECT } and the
/// vm1_* vendor PROPERTY extensions carrying access geometry and electrical
/// data (see write_lef). Foreign LEF without those properties still loads:
/// pin access geometry is derived from the physical PORT shapes (M0 segment
/// midpoint for OpenM1-style pins, M1 stub x for ClosedM1-style pins) and
/// electrical data falls back to defaults.
///
/// On any error the reader returns false, fills *err with a typed IoError,
/// and leaves *out untouched — never a partially-constructed library. A
/// number that does not fit its field (a SIZE above INT_MAX, a coordinate
/// outside int, NaN or infinity) is a kBadValue.
#pragma once

#include <string>

#include "cells/cell.h"
#include "io/io_error.h"

namespace vm1 {

struct LefContents {
  Tech tech;    ///< the synthetic 7nm grid, validated against the LEF
  Library lib;
};

bool read_lef(const std::string& text, LefContents* out, IoError* err);

}  // namespace vm1
