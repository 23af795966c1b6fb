/// \file def_reader.h
/// Full DEF reader: COMPONENTS + PINS + NETS into a complete standalone
/// Design (floorplan from DIEAREA/ROWS, instances bound to library masters,
/// full net connectivity, IO terminals with positions, placements applied).
/// This is the ingestion path for real designs — pair it with read_lef for
/// the library, or pass a programmatically-built Library.
///
/// On any error the reader returns nullptr and fills *err with a typed
/// IoError (truncated file, unknown master, duplicate component, dangling
/// net pin, placement outside DIEAREA, ...) — never a partially-constructed
/// Design. Every component is checked once, after the whole file, against
/// the final site grid (ROWS, else DIEAREA), so no statement order skips
/// the check; a grid above INT_MAX rows or sites is a kBadValue.
#pragma once

#include <memory>
#include <string>

#include "design/design.h"
#include "io/io_error.h"

namespace vm1 {

std::unique_ptr<Design> read_def_design(const std::string& text,
                                        const Tech& tech, const Library& lib,
                                        IoError* err);

}  // namespace vm1
