/// \file objective_oracle.h
/// Per-pair full-design objective: the differential-test oracle for
/// evaluate_objective (core/milp_builder.h).
///
/// The obvious way, as the library computed it before it gathered each
/// net's pins once: every pin pair re-reads both pins' geometry, and that
/// geometry comes from the cell master (Cell::pin_x_track, Cell::pin_span,
/// PinInfo::y_off) rather than the netlist's flat per-instance copy. Pairs
/// are visited i < j over a net's instance pins in net order, the order the
/// library's overlap sum must add up in, so the two agree bit for bit. It
/// lives in the openvm1_test_support library and only test binaries link
/// it.
#pragma once

#include <utility>

#include "core/milp_builder.h"

namespace vm1::oracle {

/// Aligned (ClosedM1) / overlapped (OpenM1) pin pairs of `net` and their
/// overlap beyond delta; the contract of count_net_alignments.
std::pair<long, double> pairwise_net_alignments(const Design& d, int net,
                                                const VM1Params& params);

/// HPWL plus pairwise alignments over every routable net; the contract of
/// evaluate_objective.
ObjectiveBreakdown pairwise_objective(const Design& d,
                                      const VM1Params& params);

}  // namespace vm1::oracle
