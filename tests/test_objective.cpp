/// evaluate_objective and count_net_alignments against the per-pair oracle
/// (tests/support/objective_oracle.h), bit for bit: the library gathers
/// each net's pins once for both HPWL and alignment pairs, and its OpenM1
/// overlap sum must add up in the oracle's pair order exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cells/library_builder.h"
#include "core/milp_builder.h"
#include "support/objective_oracle.h"
#include "util/rng.h"

namespace vm1 {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// make_design("tiny") with every instance dropped at random into a core a
/// third as wide, flipped half the time, so that many pin pairs share rows
/// and tracks. The objective does not need a legal placement.
Design scattered_design(CellArch arch, std::uint64_t seed) {
  DesignOptions o;
  o.seed = seed;
  Design d = make_design("tiny", arch, o);
  Rng rng(seed);
  const std::uint64_t sites =
      static_cast<std::uint64_t>(std::max(4, d.sites_per_row() / 3));
  const std::uint64_t rows = static_cast<std::uint64_t>(d.num_rows());
  for (int i = 0; i < d.netlist().num_instances(); ++i) {
    d.set_placement(i, Placement{static_cast<int>(rng.uniform(sites)),
                                 static_cast<int>(rng.uniform(rows)),
                                 rng.chance(0.5)});
  }
  return d;
}

/// A NAND2 (u0) whose two inputs share one net with the output of an INV
/// (u1), the input of a second INV (u2) and a primary output: a net with
/// two pins on one instance, whose own pair the objective must skip.
Design shared_instance_design(CellArch arch) {
  auto lib = std::make_unique<Library>(build_library(arch));
  auto nl = std::make_unique<Netlist>(lib.get());
  const int inv = lib->find("INV_X1_SVT");
  const int nand = lib->find("NAND2_X1_SVT");
  const Cell& ci = lib->cell(inv);
  const Cell& cn = lib->cell(nand);
  const int u0 = nl->add_instance("u0", nand);
  const int u1 = nl->add_instance("u1", inv);
  const int u2 = nl->add_instance("u2", inv);
  const int io = nl->add_io("pi", /*is_input=*/false);
  const int net = nl->add_net("shared");
  nl->connect(net, NetPin{u1, ci.pin_index("ZN")});
  for (int p = 0; p < static_cast<int>(cn.pins.size()); ++p) {
    if (cn.pins[p].dir == PinDir::kInput) nl->connect(net, NetPin{u0, p});
  }
  nl->connect(net, NetPin{u2, ci.pin_index("A")});
  nl->connect(net, NetPin{-1, io});
  Design d("shared", Tech::make_7nm(), std::move(lib), std::move(nl), 4, 32);
  d.set_placement(u0, Placement{10, 1, false});
  d.set_placement(u1, Placement{10, 2, true});
  d.set_placement(u2, Placement{11, 1, false});
  d.set_io_position(io, Point{0, 0});
  return d;
}

/// Every routable net's pair count, and the whole objective, bit for bit.
void expect_matches_oracle(const Design& d, const VM1Params& params,
                           const std::string& what) {
  const Netlist& nl = d.netlist();
  for (int net = 0; net < nl.num_nets(); ++net) {
    const auto [cnt, ovl] = count_net_alignments(d, net, params);
    const auto [want_cnt, want_ovl] =
        oracle::pairwise_net_alignments(d, net, params);
    EXPECT_EQ(cnt, want_cnt) << what << " net " << net;
    EXPECT_EQ(bits(ovl), bits(want_ovl)) << what << " net " << net;
  }
  const ObjectiveBreakdown got = evaluate_objective(d, params);
  const ObjectiveBreakdown want = oracle::pairwise_objective(d, params);
  EXPECT_EQ(got.alignments, want.alignments) << what;
  EXPECT_EQ(bits(got.hpwl), bits(want.hpwl)) << what;
  EXPECT_EQ(bits(got.overlap_sum), bits(want.overlap_sum)) << what;
  EXPECT_EQ(bits(got.value), bits(want.value)) << what;
}

TEST(Objective, MatchesPairwiseOracle) {
  const CellArch archs[] = {CellArch::kConventional12T, CellArch::kClosedM1,
                            CellArch::kOpenM1};
  for (CellArch arch : archs) {
    const std::string name = to_string(arch);
    long alignments = 0;
    double overlap = 0;
    int io_nets = 0;
    std::size_t largest = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Design d = scattered_design(arch, seed);
      const Netlist& nl = d.netlist();
      VM1Params params;
      // Per-net weights on some nets, as timing-driven runs set them.
      Rng rng(seed * 7919);
      params.net_beta.resize(static_cast<std::size_t>(nl.num_nets() / 2));
      for (double& b : params.net_beta) b = 0.5 + 3 * rng.uniform_real();
      if (seed % 2 == 0) {
        params.gamma = 1;
        params.delta = 0;
      }
      expect_matches_oracle(d, params, name + " seed " + std::to_string(seed));

      const ObjectiveBreakdown o = evaluate_objective(d, params);
      alignments += o.alignments;
      overlap += o.overlap_sum;
      int big = 0;
      for (int net = 0; net < nl.num_nets(); ++net) {
        const Net& n = nl.net(net);
        if (std::any_of(n.pins.begin(), n.pins.end(),
                        [](const NetPin& p) { return p.is_io(); })) {
          ++io_nets;
        }
        if (n.pins.size() > nl.net(big).pins.size()) big = net;
      }
      largest = std::max(largest, nl.net(big).pins.size());
    }
    EXPECT_GT(alignments, 0) << name;
    EXPECT_GT(io_nets, 0) << name << ": no net with an IO pin";
    // Every net is compared above, the largest (a clock net) included; it
    // is the longest pair loop.
    EXPECT_GE(largest, 12u) << name;
    if (arch == CellArch::kOpenM1) EXPECT_GT(overlap, 0) << name;

    // Slide the lone INV along the NAND2's row, flipping it every other
    // site, so that its pin meets the shared net's other pins.
    Design shared = shared_instance_design(arch);
    VM1Params params;
    params.delta = 0;
    long shared_alignments = 0;
    for (int x = 0; x < 24; ++x) {
      shared.set_placement(2, Placement{x, 1, x % 2 == 1});
      expect_matches_oracle(shared, params,
                            name + " shared instance, u2 at " +
                                std::to_string(x));
      shared_alignments += count_net_alignments(shared, 0, params).first;
    }
    EXPECT_GT(shared_alignments, 0) << name;
  }
}

}  // namespace
}  // namespace vm1
