#include "route/maze_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>

#include "cells/library_builder.h"
#include "obs/metrics.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "route/router.h"
#include "util/rng.h"

namespace vm1 {
namespace {

/// The router's maze search before it became A*: multi-source /
/// multi-target Dijkstra that stops at the first target popped. Kept
/// verbatim (members became locals, the costs come from `state`) as the
/// oracle MazeState::search must reproduce node for node. It bumps the same
/// counters, so `route.maze_expansions` deltas compare the two searches'
/// heap pops.
std::vector<GNode> reference_search(const MazeState& state,
                                    const std::vector<GNode>& sources,
                                    const std::vector<GNode>& targets,
                                    int net, int bx0, int by0, int bx1,
                                    int by1) {
  const TrackGraph& g = state.graph();
  std::vector<double> dist(g.num_nodes(), 0.0);
  std::vector<std::int64_t> parent(g.num_nodes(), -1);
  std::vector<std::uint32_t> stamp(g.num_nodes(), 0);
  std::vector<std::uint32_t> target_stamp(g.num_nodes(), 0);
  const std::uint32_t cur_stamp = 1;

  for (const GNode& t : targets) {
    if (!g.valid(t.layer, t.gx, t.gy)) continue;
    target_stamp[g.node_id(t.layer, t.gx, t.gy)] = cur_stamp;
  }

  using QE = std::pair<double, std::size_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;

  auto relax = [&](std::size_t id, double cost, std::int64_t par) {
    if (stamp[id] == cur_stamp && dist[id] <= cost) return;
    stamp[id] = cur_stamp;
    dist[id] = cost;
    parent[id] = par;
    pq.push({cost, id});
  };

  for (const GNode& s : sources) {
    if (!g.valid(s.layer, s.gx, s.gy)) continue;
    if (!g.passable(s.layer, s.gx, s.gy, net)) continue;
    relax(g.node_id(s.layer, s.gx, s.gy), 0.0, -1);
  }

  // Decode node id -> (layer, gx, gy).
  const int wrow = g.width() + 1;
  const std::size_t per_layer =
      static_cast<std::size_t>(wrow) * (g.height() + 1);
  auto decode = [&](std::size_t id) {
    int layer = static_cast<int>(id / per_layer);
    std::size_t rem = id % per_layer;
    int gy = static_cast<int>(rem / wrow);
    int gx = static_cast<int>(rem % wrow);
    return GNode{layer, gx, gy};
  };

  std::size_t found = static_cast<std::size_t>(-1);
  long popped = 0;
  while (!pq.empty()) {
    auto [cost, id] = pq.top();
    pq.pop();
    ++popped;
    if (stamp[id] != cur_stamp || cost > dist[id]) continue;
    if (target_stamp[id] == cur_stamp) {
      found = id;
      break;
    }
    GNode nd = decode(id);

    auto try_wire = [&](int fx, int fy, int tx, int ty, std::size_t from_id,
                        std::size_t to_id) {
      // Edge is identified by its low/left endpoint (fx, fy).
      if (fx < bx0 || tx > bx1 || fy < by0 || ty > by1) return;
      if (!g.edge_allowed(nd.layer, fx, fy, net)) return;
      double c = cost + state.wire_cost(nd.layer, from_id);
      relax(to_id, c, static_cast<std::int64_t>(id));
    };

    if (TrackGraph::is_vertical(nd.layer)) {
      if (nd.gy < g.height()) {
        try_wire(nd.gx, nd.gy, nd.gx, nd.gy + 1, id,
                 g.node_id(nd.layer, nd.gx, nd.gy + 1));
      }
      if (nd.gy > 0) {
        std::size_t to = g.node_id(nd.layer, nd.gx, nd.gy - 1);
        try_wire(nd.gx, nd.gy - 1, nd.gx, nd.gy, to, to);
      }
    } else {
      if (nd.gx < g.width()) {
        try_wire(nd.gx, nd.gy, nd.gx + 1, nd.gy, id,
                 g.node_id(nd.layer, nd.gx + 1, nd.gy));
      }
      if (nd.gx > 0) {
        std::size_t to = g.node_id(nd.layer, nd.gx - 1, nd.gy);
        try_wire(nd.gx - 1, nd.gy, nd.gx, nd.gy, to, to);
      }
    }

    // Vias: between layer l and l+1 at this (gx, gy).
    for (int dl : {+1, -1}) {
      int nl = nd.layer + dl;
      if (nl < 0 || nl >= kNumRouteLayers) continue;
      if (!g.valid(nl, nd.gx, nd.gy)) continue;
      if (!g.passable(nl, nd.gx, nd.gy, net)) continue;
      if (nd.gx < bx0 || nd.gx > bx1 || nd.gy < by0 || nd.gy > by1) continue;
      int low_layer = std::min(nd.layer, nl);
      std::size_t low_id = g.node_id(low_layer, nd.gx, nd.gy);
      double c = cost + state.via_cost(low_id);
      relax(g.node_id(nl, nd.gx, nd.gy), c, static_cast<std::int64_t>(id));
    }
  }

  // One bulk add per search keeps the pop loop metric-free.
  static obs::Counter& searches_metric = obs::counter("route.maze_searches");
  static obs::Counter& expansions_metric =
      obs::counter("route.maze_expansions");
  searches_metric.add();
  expansions_metric.add(popped);

  std::vector<GNode> path;
  if (found == static_cast<std::size_t>(-1)) return path;
  std::int64_t cur = static_cast<std::int64_t>(found);
  while (cur >= 0) {
    path.push_back(decode(static_cast<std::size_t>(cur)));
    cur = parent[static_cast<std::size_t>(cur)];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Empty design: free routing fabric with no cells (OpenM1 so no PG
/// staples when disabled via options, and no pin blockage).
Design empty_design(int rows, int sites) {
  auto lib = std::make_unique<Library>(build_library(CellArch::kOpenM1));
  auto nl = std::make_unique<Netlist>(lib.get());
  return Design("empty", Tech::make_7nm(), std::move(lib), std::move(nl),
                rows, sites);
}

class MazeTest : public ::testing::Test {
 protected:
  MazeTest()
      : d_(empty_design(4, 40)),
        graph_(d_, no_staples()),
        state_(graph_, MazeCostOptions{}) {}

  static TrackGraphOptions no_staples() {
    TrackGraphOptions o;
    o.staple_pitch = 0;
    return o;
  }

  std::vector<GNode> search(GNode from, GNode to) {
    return state_.search({from}, {to}, /*net=*/0, 0, 0, graph_.width(),
                         graph_.height());
  }

  Design d_;
  TrackGraph graph_;
  MazeState state_;
};

TEST_F(MazeTest, StraightM1Path) {
  auto path = search({kM1, 5, 2}, {kM1, 5, 9});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), (GNode{kM1, 5, 2}));
  EXPECT_EQ(path.back(), (GNode{kM1, 5, 9}));
  for (const GNode& n : path) {
    EXPECT_EQ(n.layer, kM1);  // no reason to leave M1
    EXPECT_EQ(n.gx, 5);
  }
  EXPECT_EQ(path.size(), 8u);
}

TEST_F(MazeTest, LShapedPathUsesViaAndM2) {
  auto path = search({kM1, 5, 2}, {kM1, 15, 2});
  ASSERT_FALSE(path.empty());
  bool used_m2 = false;
  for (const GNode& n : path) used_m2 |= (n.layer == kM2);
  EXPECT_TRUE(used_m2);  // horizontal motion requires a horizontal layer
}

TEST_F(MazeTest, SourceEqualsTargetIsTrivial) {
  auto path = search({kM1, 7, 3}, {kM1, 7, 3});
  ASSERT_EQ(path.size(), 1u);
}

TEST_F(MazeTest, MultiSourceMultiTargetPicksNearest) {
  std::vector<GNode> sources = {{kM1, 2, 2}, {kM1, 30, 2}};
  std::vector<GNode> targets = {{kM1, 31, 5}, {kM1, 20, 12}};
  auto path = state_.search(sources, targets, 0, 0, 0, graph_.width(),
                            graph_.height());
  ASSERT_FALSE(path.empty());
  // Nearest pairing is (30,2) -> (31,5).
  EXPECT_EQ(path.front().gx, 30);
  EXPECT_EQ(path.back().gx, 31);
}

TEST_F(MazeTest, NoTargetOnTheLatticeFindsNothing) {
  // M3 runs on even gx only: this target does not exist, and with no
  // target left the search pops nothing.
  obs::Counter& pops = obs::counter("route.maze_expansions");
  long before = pops.value();
  EXPECT_TRUE(search({kM1, 5, 2}, {kM3, 5, 9}).empty());
  EXPECT_EQ(pops.value(), before);
}

TEST_F(MazeTest, BboxRestrictsSearch) {
  // Target outside the bbox: unreachable.
  auto path = state_.search({{kM1, 5, 2}}, {{kM1, 5, 9}}, 0, 0, 0,
                            graph_.width(), 5);
  EXPECT_TRUE(path.empty());
}

TEST_F(MazeTest, SourceOutsideBboxExpandsNothing) {
  // Every edge a search uses has both ends inside its bbox: a source just
  // above the box may not step down into it, though the target is there,
  // and a source just right of it on M2 may not step left into it. Each
  // pair's first search, with the box one track larger, finds the path.
  const int w = graph_.width(), h = graph_.height();
  EXPECT_FALSE(state_.search({{kM1, 5, 6}}, {{kM1, 5, 2}}, 0, 0, 0, w, 6)
                   .empty());
  EXPECT_TRUE(state_.search({{kM1, 5, 6}}, {{kM1, 5, 2}}, 0, 0, 0, w, 5)
                  .empty());
  EXPECT_FALSE(state_.search({{kM2, 11, 3}}, {{kM2, 4, 3}}, 0, 0, 0, 11, h)
                   .empty());
  EXPECT_TRUE(state_.search({{kM2, 11, 3}}, {{kM2, 4, 3}}, 0, 0, 0, 10, h)
                  .empty());
}

TEST_F(MazeTest, CongestionDivertsSecondNet) {
  // Saturate the cheap M1 column with net 1, then route net 2 in parallel:
  // it should avoid the used edges (capacity 1).
  auto p1 = search({kM1, 10, 2}, {kM1, 10, 10});
  ASSERT_FALSE(p1.empty());
  for (std::size_t i = 0; i + 1 < p1.size(); ++i) {
    int fy = std::min(p1[i].gy, p1[i + 1].gy);
    state_.add_wire(graph_.node_id(kM1, 10, fy), 1);
  }
  auto p2 = state_.search({{kM1, 10, 2}}, {{kM1, 10, 10}}, /*net=*/2, 0, 0,
                          graph_.width(), graph_.height());
  ASSERT_FALSE(p2.empty());
  bool left_column = false;
  for (const GNode& n : p2) left_column |= (n.gx != 10 || n.layer != kM1);
  EXPECT_TRUE(left_column) << "second net should detour off the used column";
}

TEST_F(MazeTest, OverflowTrackingAndHistory) {
  std::size_t edge = graph_.node_id(kM1, 4, 4);
  EXPECT_EQ(state_.total_overflow(), 0);
  state_.add_wire(edge, 2);  // capacity 1 -> overflow 1
  EXPECT_EQ(state_.total_overflow(), 1);
  auto over = state_.overused_edges();
  ASSERT_EQ(over.size(), 1u);
  EXPECT_EQ(over[0], edge);
  state_.accumulate_history();
  const double base = TrackGraph::edge_len_dbu(kM1);
  EXPECT_GT(state_.wire_cost(kM1, edge), base);  // overuse plus history
  state_.reset();
  EXPECT_EQ(state_.total_overflow(), 0);
  EXPECT_EQ(state_.wire_cost(kM1, edge), base);  // history cleared too
}

TEST_F(MazeTest, ViaCostDiscouragesLayerHopping) {
  // A short vertical run should stay on M1 rather than hop M1->M3.
  auto path = search({kM1, 8, 3}, {kM1, 8, 6});
  for (const GNode& n : path) EXPECT_EQ(n.layer, kM1);
}

/// Each value must make validate() throw, naming `field`.
void expect_rejected(double MazeCostOptions::*field, const char* name) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {-1.0, -1e-9, nan, inf, -inf}) {
    MazeCostOptions opts;
    opts.*field = bad;
    try {
      opts.validate();
      ADD_FAILURE() << name << " = " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(MazeCostOptions, DefaultsAreValid) {
  EXPECT_NO_THROW(MazeCostOptions{}.validate());
  MazeCostOptions free_congestion;
  free_congestion.overuse_penalty = 0;
  free_congestion.history_weight = 0;
  EXPECT_NO_THROW(free_congestion.validate());
}

TEST(MazeCostOptions, RejectsViaCostThatIsNotPositive) {
  // A zero-cost via ties g across layers and breaks the (g, id) pop order
  // the A*/Dijkstra equivalence rests on.
  expect_rejected(&MazeCostOptions::via_cost, "via_cost");
  MazeCostOptions opts;
  opts.via_cost = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(MazeCostOptions, RejectsNegativeOverusePenalty) {
  expect_rejected(&MazeCostOptions::overuse_penalty, "overuse_penalty");
}

TEST(MazeCostOptions, RejectsNegativeHistoryWeight) {
  expect_rejected(&MazeCostOptions::history_weight, "history_weight");
}

TEST_F(MazeTest, ConstructorValidatesCostOptions) {
  MazeCostOptions opts;
  opts.via_cost = -4;
  EXPECT_THROW(MazeState(graph_, opts), std::invalid_argument);
}

/// One random search for the differential tests: a net, its sources and
/// targets, and the bbox to clip to.
struct SearchCase {
  std::vector<GNode> sources;
  std::vector<GNode> targets;
  int net = 0;
  int bx0 = 0, by0 = 0, bx1 = 0, by1 = 0;
};

/// Draws random multi-node source sets and pin-access target sets of the
/// routable `nets`, full-core, bbox-clipped and unreachable.
SearchCase draw_case(Rng& rng, const Netlist& nl, const TrackGraph& g,
                     const std::vector<int>& nets) {
  auto access = [&](const NetPin& p) {
    return p.is_io() ? g.io_access_nodes(p.pin)
                     : g.pin_access_nodes(p.inst, p.pin);
  };
  SearchCase c;
  int net = nets[rng.uniform(nets.size())];
  const Net& net_pins = nl.net(net);
  // Targets: one pin's access nodes, sometimes a second pin's too.
  std::size_t tp = rng.uniform(net_pins.pins.size());
  std::vector<GNode>& targets = c.targets;
  targets = access(net_pins.pins[tp]);
  if (rng.chance(0.25)) {
    std::vector<GNode> more =
        access(net_pins.pins[rng.uniform(net_pins.pins.size())]);
    targets.insert(targets.end(), more.begin(), more.end());
  }
  // Sources: another pin's access nodes plus a few random nodes, some of
  // them off the lattice (M3 at odd gx, M4 at odd gy).
  std::vector<GNode>& sources = c.sources;
  sources = access(net_pins.pins[(tp + 1) % net_pins.pins.size()]);
  for (int k = static_cast<int>(rng.uniform(4)); k > 0; --k) {
    sources.push_back(
        GNode{static_cast<int>(rng.uniform(kNumRouteLayers)),
              static_cast<int>(rng.uniform_int(0, g.width())),
              static_cast<int>(rng.uniform_int(0, g.height()))});
  }
  // Now and then search as another net, whose pins block this one's.
  if (rng.chance(0.1)) net = static_cast<int>(rng.uniform(nl.num_nets()));
  c.net = net;
  int bx0 = 0, by0 = 0, bx1 = g.width(), by1 = g.height();
  double kind = rng.uniform_real();
  if (kind < 0.4) {
    // The router's clip: the terminals' bbox plus a random margin.
    bx0 = g.width(), by0 = g.height(), bx1 = 0, by1 = 0;
    for (const auto* set : {&sources, &targets}) {
      for (const GNode& n : *set) {
        bx0 = std::min(bx0, n.gx);
        by0 = std::min(by0, n.gy);
        bx1 = std::max(bx1, n.gx);
        by1 = std::max(by1, n.gy);
      }
    }
    int m = static_cast<int>(rng.uniform(8));
    bx0 = std::max(0, bx0 - m);
    by0 = std::max(0, by0 - m);
    bx1 = std::min(g.width(), bx1 + m);
    by1 = std::min(g.height(), by1 + m);
  } else if (kind < 0.55 && !sources.empty()) {
    // A box around the first source alone: the targets usually lie
    // outside it, so the whole box is searched in vain.
    const GNode& s = sources.front();
    int m = static_cast<int>(rng.uniform_int(1, 6));
    bx0 = std::max(0, s.gx - m);
    by0 = std::max(0, s.gy - m);
    bx1 = std::min(g.width(), s.gx + m);
    by1 = std::min(g.height(), s.gy + m);
  }
  c.bx0 = bx0, c.by0 = by0, c.bx1 = bx1, c.by1 = by1;
  return c;
}

/// A routed design of `arch` at a congested utilization, so rip-up rounds
/// leave usage and history.
Design placed_congested(CellArch arch) {
  DesignOptions opts;
  opts.utilization = 0.85;  // congested: rip-up rounds leave history
  Design d = make_design("tiny", arch, opts);
  global_place(d);
  legalize(d);
  return d;
}

std::vector<int> routable_nets(const Netlist& nl) {
  std::vector<int> nets;
  for (int n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).routable()) nets.push_back(n);
  }
  return nets;
}

/// Differential test: on a routed design (so usage and history are not
/// trivial), MazeState::search and the Dijkstra oracle return the same path
/// node for node — or both none — for random multi-node source sets and
/// pin-access target sets, full-core, bbox-clipped and unreachable; over
/// the whole draw the A* search pops fewer heap entries than the oracle.
class MazeDifferential : public ::testing::TestWithParam<CellArch> {};

TEST_P(MazeDifferential, SearchReturnsTheDijkstraPath) {
  Design d = placed_congested(GetParam());
  obs::Counter& rounds = obs::counter("route.ripup_rounds");
  long rounds0 = rounds.value();
  Router router(d);
  router.route();
  ASSERT_GT(rounds.value(), rounds0) << "no rip-up round: history is zero";
  MazeState state = router.state();  // the final usage and history
  const TrackGraph& g = router.graph();
  const Netlist& nl = d.netlist();
  std::vector<int> nets = routable_nets(nl);
  ASSERT_FALSE(nets.empty());

  Rng rng(0xA57A4ULL + static_cast<std::uint64_t>(GetParam()));
  obs::Counter& pops = obs::counter("route.maze_expansions");
  obs::Counter& pushes = obs::counter("route.maze_pushes");
  long ref_pops_total = 0;
  long pops_total = 0;
  int found = 0;
  int unreachable = 0;
  constexpr int kSearches = 300;
  for (int i = 0; i < kSearches; ++i) {
    const SearchCase c = draw_case(rng, nl, g, nets);
    long p0 = pops.value();
    std::vector<GNode> want = reference_search(
        state, c.sources, c.targets, c.net, c.bx0, c.by0, c.bx1, c.by1);
    long p1 = pops.value();
    long q1 = pushes.value();
    std::vector<GNode> got = state.search(c.sources, c.targets, c.net, c.bx0,
                                          c.by0, c.bx1, c.by1);
    long p2 = pops.value();
    ASSERT_EQ(got.size(), want.size()) << "search " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << "search " << i << " node " << k;
    }
    // Every entry a search pops it pushed itself.
    EXPECT_LE(p2 - p1, pushes.value() - q1) << "search " << i;
    ref_pops_total += p1 - p0;
    pops_total += p2 - p1;
    (want.empty() ? unreachable : found) += 1;
  }
  // The draw must cover both outcomes.
  EXPECT_GT(found, kSearches / 4);
  EXPECT_GT(unreachable, 0);
  // Over the draw, not per search: A* expands only nodes Dijkstra expands
  // too, but its f order can relax a node twice where Dijkstra's g order
  // relaxes it once, so a search that ends up exploring its whole box (an
  // unreachable target) can pop a few superseded entries more.
  EXPECT_LE(pops_total, ref_pops_total);
  std::printf("%d found, %d unreachable; heap pops %ld (oracle %ld)\n", found,
              unreachable, pops_total, ref_pops_total);
}

/// Cost of `path` at `state`'s current prices, summed from the source in
/// the order the searches accumulate g.
double path_cost(const MazeState& state, const std::vector<GNode>& path) {
  const TrackGraph& g = state.graph();
  double cost = 0.0;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const GNode& a = path[k];
    const GNode& b = path[k + 1];
    if (a.layer == b.layer) {
      const GNode& low = (a.gx + a.gy <= b.gx + b.gy) ? a : b;
      cost += state.wire_cost(a.layer, g.node_id(low.layer, low.gx, low.gy));
    } else {
      cost += state.via_cost(g.node_id(std::min(a.layer, b.layer), a.gx, a.gy));
    }
  }
  return cost;
}

/// `path` runs from one of the case's sources to one of its targets over
/// edges its net may use, every edge inside the case's bbox.
void expect_valid_path(const TrackGraph& g, const SearchCase& c,
                       const std::vector<GNode>& path, int i) {
  auto in_box = [&](const GNode& n) {
    return n.gx >= c.bx0 && n.gx <= c.bx1 && n.gy >= c.by0 && n.gy <= c.by1;
  };
  auto contains = [](const std::vector<GNode>& set, const GNode& n) {
    return std::find(set.begin(), set.end(), n) != set.end();
  };
  ASSERT_FALSE(path.empty());
  const GNode& src = path.front();
  EXPECT_TRUE(contains(c.sources, src)) << "search " << i;
  EXPECT_TRUE(g.valid(src.layer, src.gx, src.gy) &&
              g.passable(src.layer, src.gx, src.gy, c.net))
      << "search " << i;
  EXPECT_TRUE(contains(c.targets, path.back())) << "search " << i;
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const GNode& a = path[k];
    const GNode& b = path[k + 1];
    EXPECT_TRUE(in_box(a) && in_box(b)) << "search " << i << " edge " << k;
    if (a.layer == b.layer) {
      const bool vertical = TrackGraph::is_vertical(a.layer);
      const int step = vertical ? b.gy - a.gy : b.gx - a.gx;
      const bool along = vertical ? a.gx == b.gx : a.gy == b.gy;
      ASSERT_TRUE(along && (step == 1 || step == -1))
          << "search " << i << " edge " << k << " is not one wire step";
      const GNode& low = step == 1 ? a : b;
      EXPECT_TRUE(g.edge_allowed(low.layer, low.gx, low.gy, c.net))
          << "search " << i << " edge " << k;
    } else {
      ASSERT_TRUE(std::abs(a.layer - b.layer) == 1 && a.gx == b.gx &&
                  a.gy == b.gy)
          << "search " << i << " edge " << k << " is not one via";
      EXPECT_TRUE(g.valid(b.layer, b.gx, b.gy) &&
                  g.passable(b.layer, b.gx, b.gy, c.net))
          << "search " << i << " edge " << k;
    }
  }
}

/// Non-integer costs: each A* path must cost what the Dijkstra path costs,
/// within 1e-9 relative, and be a real path of its search. Two cost sets:
///   * 3.5 / 7.25 / 0.5 are binary fractions, so every path sum is still
///     exact and the searches agree node for node, as at integer costs;
///   * 3.3 / 7.1 / 0.3 are not: sums round, so f = g + h can round below a
///     parent's f and the open list clamps the push to the last key popped
///     (tens of thousands of times over one draw), and two optimal paths
///     may compare unequal by a rounding error, so the searches may pick
///     different ones. Without the clamp the queue pops out of order and the
///     12T draw returns a costlier path.
TEST_P(MazeDifferential, FractionalCostsKeepTheDijkstraCost) {
  Design d = placed_congested(GetParam());
  Router router(d);
  router.route();
  const TrackGraph& g = router.graph();
  const Netlist& nl = d.netlist();
  std::vector<int> nets = routable_nets(nl);
  ASSERT_FALSE(nets.empty());

  for (const auto& [via, overuse, history] :
       {std::tuple{3.5, 7.25, 0.5}, std::tuple{3.3, 7.1, 0.3}}) {
    MazeCostOptions costs;
    costs.via_cost = via;
    costs.overuse_penalty = overuse;
    costs.history_weight = history;
    MazeState state(g, costs);
    for (std::size_t e = 0; e < g.num_nodes(); ++e) {
      state.add_wire(e, router.state().wire_use(e));
      state.add_via(e, router.state().via_use(e));
    }
    state.accumulate_history();
    ASSERT_GT(state.total_overflow(), 0) << "no overuse: history is zero";

    Rng rng(0xF4AC7ULL + static_cast<std::uint64_t>(GetParam()));
    int found = 0;
    int same_path = 0;
    constexpr int kSearches = 300;
    for (int i = 0; i < kSearches; ++i) {
      const SearchCase c = draw_case(rng, nl, g, nets);
      std::vector<GNode> want = reference_search(
          state, c.sources, c.targets, c.net, c.bx0, c.by0, c.bx1, c.by1);
      std::vector<GNode> got = state.search(c.sources, c.targets, c.net,
                                            c.bx0, c.by0, c.bx1, c.by1);
      ASSERT_EQ(got.empty(), want.empty()) << "search " << i;
      if (want.empty()) continue;
      ++found;
      same_path += got == want;
      const double cost = path_cost(state, got);
      const double ref_cost = path_cost(state, want);
      EXPECT_LE(std::abs(cost - ref_cost), 1e-9 * ref_cost)
          << "via " << via << ", search " << i << ": " << cost << " vs "
          << ref_cost;
      expect_valid_path(g, c, got, i);
    }
    EXPECT_GT(found, kSearches / 4);
    std::printf("via %g: %d found, %d node for node\n", via, found,
                same_path);
  }
}

INSTANTIATE_TEST_SUITE_P(Archs, MazeDifferential,
                         ::testing::Values(CellArch::kClosedM1,
                                           CellArch::kOpenM1,
                                           CellArch::kConventional12T));

}  // namespace
}  // namespace vm1
