#include "route/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "cells/library_builder.h"
#include "core/flow.h"
#include "place/global_placer.h"
#include "place/hpwl.h"
#include "place/legalizer.h"
#include "route/metrics.h"
#include "util/hash.h"

namespace vm1 {
namespace {

Design placed_design(CellArch arch, double util = 0.75) {
  DesignOptions opts;
  opts.utilization = util;
  Design d = make_design("tiny", arch, opts);
  global_place(d);
  legalize(d);
  return d;
}

/// aes / ClosedM1 at the paper-flow operating point (scale 0.25,
/// utilization 0.75, seed 0), placed as prepare_design() places it.
Design aes_quarter() {
  FlowOptions f;
  f.design_name = "aes";
  f.arch = CellArch::kClosedM1;
  f.design.scale = 0.25;
  f.design.utilization = 0.75;
  return prepare_design(f, nullptr);
}

/// FNV-1a over every net's routing: its sorted wire-edge ids, its sorted
/// via-edge ids (each list led by its length) and its dM1 count. The golden
/// corpus records only sums, which two different routings can share.
std::uint64_t route_digest(const Router& router) {
  std::vector<std::uint8_t> bytes;
  auto put = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  for (const NetRoute& nr : router.net_routes()) {
    for (const auto* edges : {&nr.wire_edges, &nr.via_edges}) {
      std::vector<std::size_t> ids(edges->begin(), edges->end());
      std::sort(ids.begin(), ids.end());
      put(ids.size());
      for (std::size_t e : ids) put(e);
    }
    put(static_cast<std::uint64_t>(nr.dm1));
  }
  return hash::fnv1a64(bytes.data(), bytes.size());
}

class RouterPerArch : public ::testing::TestWithParam<CellArch> {};

TEST_P(RouterPerArch, RoutesEverythingAtModerateUtilization) {
  Design d = placed_design(GetParam(), 0.7);
  Router router(d);
  RouteMetrics m = router.route();
  EXPECT_EQ(m.unrouted, 0);
  EXPECT_GT(m.rwl_dbu, 0);
}

TEST_P(RouterPerArch, RwlAtLeastHpwlPerNet) {
  // A routed tree spanning a net's pins can't be shorter than ~half its
  // HPWL (vertical DBU granularity rounds in favour of the route), and the
  // total must be at least the total HPWL minus rounding slack.
  Design d = placed_design(GetParam(), 0.7);
  Router router(d);
  router.route();
  const Netlist& nl = d.netlist();
  for (int n = 0; n < nl.num_nets(); ++n) {
    if (!nl.net(n).routable()) continue;
    if (!router.net_routes()[n].routed) continue;
    long len = router.net_length_dbu(n);
    // HPWL uses point pins (x_track / M0 midpoint, y_off). The router may
    // legitimately beat it: it can tap a pin anywhere on its physical shape
    // (ClosedM1 stubs are 8 DBU tall; OpenM1 segments several sites wide)
    // and y is quantized to 2-DBU tracks. Grant each pin its shape extents
    // plus one track of slack.
    long slack = 0;
    for (const NetPin& p : nl.net(n).pins) {
      slack += 4;
      if (!p.is_io()) {
        const Rect& shape =
            nl.cell_of(p.inst).pins[p.pin].shapes.front().box;
        slack += shape.width() + shape.height();
      }
    }
    EXPECT_GE(len + slack, net_hpwl(d, n)) << nl.net(n).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Archs, RouterPerArch,
                         ::testing::Values(CellArch::kClosedM1,
                                           CellArch::kOpenM1,
                                           CellArch::kConventional12T));

TEST(Router, ConventionalHasNoInterRowDm1) {
  Design d = placed_design(CellArch::kConventional12T);
  Router router(d);
  RouteMetrics m = router.route();
  // M1 rails forbid inter-row M1; the only "dM1" possible would be a
  // zero-length abutment, which ClosedM1-style pins can't produce either.
  // dM1 paths within a row would require equal x (impossible for two
  // distinct pins in the same row at the same track without overlap).
  EXPECT_EQ(m.num_dm1, 0);
}

TEST(Router, ClosedM1AlignedPairRoutesAsDm1) {
  // Hand-build the canonical Figure 2(a) scenario: two INVs in adjacent
  // rows with driver ZN vertically aligned with sink A.
  auto lib = std::make_unique<Library>(build_library(CellArch::kClosedM1));
  auto nl = std::make_unique<Netlist>(lib.get());
  int inv = lib->find("INV_X1_SVT");
  const Cell& c = lib->cell(inv);
  int u0 = nl->add_instance("u0", inv);
  int u1 = nl->add_instance("u1", inv);
  int net = nl->add_net("n0");
  nl->connect(net, NetPin{u0, c.pin_index("ZN")});
  nl->connect(net, NetPin{u1, c.pin_index("A")});
  // Tie off u1's output and u0's input to IOs so validate() is clean.
  int pi = nl->add_io("pi", true);
  int n_in = nl->add_net("nin");
  nl->connect(n_in, NetPin{-1, pi});
  nl->connect(n_in, NetPin{u0, c.pin_index("A")});
  int po = nl->add_io("po", false);
  int n_out = nl->add_net("nout");
  nl->connect(n_out, NetPin{u1, c.pin_index("ZN")});
  nl->connect(n_out, NetPin{-1, po});

  Design d("dm1_pair", Tech::make_7nm(), std::move(lib), std::move(nl), 4,
           24);
  d.set_io_position(0, Point{0, 0});
  d.set_io_position(1, Point{24, 60});
  // ZN of u0 at track 10+2=12; A of u1 at track x+1 -> x=11 aligns.
  d.set_placement(u0, Placement{10, 1, false});
  d.set_placement(u1, Placement{11, 2, false});

  Router router(d);
  RouteMetrics m = router.route();
  EXPECT_GE(m.num_dm1, 1);
  EXPECT_EQ(m.unrouted, 0);
}

TEST(Router, OpenM1OverlappedPairRoutesAsDm1) {
  // Figure 2(b): two OpenM1 INVs in adjacent rows whose ZN / A horizontal
  // M0 projections overlap — a single vertical M1 segment (plus V01 vias)
  // connects them.
  auto lib = std::make_unique<Library>(build_library(CellArch::kOpenM1));
  auto nl = std::make_unique<Netlist>(lib.get());
  int inv = lib->find("INV_X1_SVT");
  const Cell& c = lib->cell(inv);
  int u0 = nl->add_instance("u0", inv);
  int u1 = nl->add_instance("u1", inv);
  int net = nl->add_net("n0");
  nl->connect(net, NetPin{u0, c.pin_index("ZN")});
  nl->connect(net, NetPin{u1, c.pin_index("A")});
  Design d("open_pair", Tech::make_7nm(), std::move(lib), std::move(nl), 4,
           24);
  // ZN span [1,3] at x=10 -> [11,13]; A span [0,1] at x=12 -> [12,13]:
  // overlapped by one site.
  d.set_placement(u0, Placement{10, 1, false});
  d.set_placement(u1, Placement{12, 2, false});
  RouterOptions opts;
  opts.graph.staple_pitch = 0;  // keep the overlap column free
  Router router(d, opts);
  RouteMetrics m = router.route();
  EXPECT_GE(m.num_dm1, 1);
  EXPECT_EQ(m.unrouted, 0);
}

TEST(Router, MisalignedPairIsNotDm1) {
  auto lib = std::make_unique<Library>(build_library(CellArch::kClosedM1));
  auto nl = std::make_unique<Netlist>(lib.get());
  int inv = lib->find("INV_X1_SVT");
  const Cell& c = lib->cell(inv);
  int u0 = nl->add_instance("u0", inv);
  int u1 = nl->add_instance("u1", inv);
  int net = nl->add_net("n0");
  nl->connect(net, NetPin{u0, c.pin_index("ZN")});
  nl->connect(net, NetPin{u1, c.pin_index("A")});
  Design d("miss_pair", Tech::make_7nm(), std::move(lib), std::move(nl), 4,
           24);
  d.set_placement(u0, Placement{10, 1, false});
  d.set_placement(u1, Placement{16, 2, false});  // 5 tracks off
  Router router(d);
  RouteMetrics m = router.route();
  EXPECT_EQ(m.num_dm1, 0);
  EXPECT_GT(m.via12, 0);  // must hop to M2 to jog sideways
}

TEST(Router, MetricsAreConsistent) {
  Design d = placed_design(CellArch::kClosedM1);
  Router router(d);
  RouteMetrics m = router.route();
  long sum = 0;
  for (long l : m.wl_by_layer) sum += l;
  EXPECT_EQ(sum, m.rwl_dbu);
  EXPECT_EQ(m.m1_wl_dbu(), m.wl_by_layer[kM1]);
  EXPECT_GE(m.via12, 0);
  EXPECT_GE(m.drv, 0);
}

TEST(Router, DeterministicAcrossRuns) {
  Design d1 = placed_design(CellArch::kClosedM1);
  Design d2 = placed_design(CellArch::kClosedM1);
  RouteMetrics a = Router(d1).route();
  RouteMetrics b = Router(d2).route();
  EXPECT_EQ(a.rwl_dbu, b.rwl_dbu);
  EXPECT_EQ(a.num_dm1, b.num_dm1);
  EXPECT_EQ(a.via12, b.via12);
  EXPECT_EQ(a.drv, b.drv);
}

TEST(Router, HighUtilizationIncreasesCongestion) {
  Design lo = placed_design(CellArch::kClosedM1, 0.6);
  Design hi = placed_design(CellArch::kClosedM1, 0.95);
  RouterOptions opts;
  opts.max_iterations = 2;  // keep overflow visible
  RouteMetrics ml = Router(lo, opts).route();
  RouteMetrics mh = Router(hi, opts).route();
  EXPECT_GE(mh.drv, ml.drv);
}

TEST(Router, CongestionMapCoversOverflow) {
  Design d = placed_design(CellArch::kClosedM1, 0.95);
  RouterOptions opts;
  opts.max_iterations = 1;
  Router router(d, opts);
  RouteMetrics m = router.route();
  CongestionMap map = build_congestion_map(router);
  EXPECT_EQ(map.total(), m.drv);
  if (m.drv > 0) {
    std::string art = render_congestion(map);
    EXPECT_FALSE(art.empty());
  }
}

TEST(Router, RouteTwiceGivesIdenticalResults) {
  // A second route() on one Router starts from zero usage and history, so
  // it repeats the first call exactly.
  Design d = aes_quarter();
  Router router(d);
  RouteMetrics a = router.route();
  const std::vector<NetRoute> first = router.net_routes();
  RouteMetrics b = router.route();
  EXPECT_EQ(a.drv, b.drv);
  EXPECT_EQ(a.rwl_dbu, b.rwl_dbu);
  EXPECT_EQ(a.via12, b.via12);
  EXPECT_EQ(a.via23, b.via23);
  EXPECT_EQ(a.via34, b.via34);
  EXPECT_EQ(a.num_dm1, b.num_dm1);
  EXPECT_EQ(a.num_m1_segments, b.num_m1_segments);
  EXPECT_EQ(a.unrouted, b.unrouted);
  const std::vector<NetRoute>& second = router.net_routes();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t n = 0; n < first.size(); ++n) {
    EXPECT_EQ(first[n].wire_edges, second[n].wire_edges) << "net " << n;
    EXPECT_EQ(first[n].via_edges, second[n].via_edges) << "net " << n;
    EXPECT_EQ(first[n].dm1, second[n].dm1) << "net " << n;
  }
}

TEST(Router, RouteDigestIsFrozen) {
  // Per-net routes, not just their sums, are part of the router's contract:
  // a faster search must return the very same paths.
  struct Case {
    const char* name;
    Design design;
    std::uint64_t digest;
  };
  Case cases[] = {
      {"tiny/ClosedM1", placed_design(CellArch::kClosedM1),
       0x1400a256764af649ULL},
      {"tiny/OpenM1", placed_design(CellArch::kOpenM1),
       0x1f3508a5bad9fcf4ULL},
      {"tiny/Conventional12T", placed_design(CellArch::kConventional12T),
       0xc370aec6e68c50c5ULL},
      {"aes/ClosedM1@0.25", aes_quarter(), 0x02dad79758c10fa3ULL},
  };
  for (Case& c : cases) {
    Router router(c.design);
    router.route();
    std::uint64_t got = route_digest(router);
    EXPECT_EQ(got, c.digest) << c.name << ": digest 0x" << std::hex << got;
  }
}

TEST(Router, SummaryMentionsKeyMetrics) {
  Design d = placed_design(CellArch::kClosedM1);
  Router router(d);
  RouteMetrics m = router.route();
  std::string s = summarize(m);
  EXPECT_NE(s.find("RWL="), std::string::npos);
  EXPECT_NE(s.find("dM1="), std::string::npos);
}

}  // namespace
}  // namespace vm1
