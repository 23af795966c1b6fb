/// \file library_builder.h
/// Generates the synthetic 7.5-track triple-Vt standard-cell libraries used
/// by all experiments, for any of the three cell architectures of the paper.
///
/// ClosedM1 cells have 1D vertical M1 signal pins placed on the site grid
/// (M1 pitch == site width), so two pins of a net can be joined by a single
/// vertical M1 segment exactly when their x tracks align. OpenM1 cells have
/// horizontal M0 pin segments; a single vertical M1 segment plus two V01
/// vias joins two pins whenever their x projections overlap. The
/// conventional 12-track architecture keeps M1 PG rails, which block
/// inter-row M1 routing entirely (used as a contrast baseline).
#pragma once

#include "cells/cell.h"

namespace vm1 {

/// Builds the full library (logic + flops + fillers, 3 Vt flavours) for the
/// given architecture.
Library build_library(CellArch arch);

}  // namespace vm1
