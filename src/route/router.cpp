#include "route/router.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "place/hpwl.h"
#include "util/logging.h"

namespace vm1 {

Router::Router(const Design& d, const RouterOptions& opts)
    : design_(&d),
      opts_(opts),
      graph_(d, opts.graph),
      state_(graph_, opts.cost) {
  net_routes_.resize(d.netlist().num_nets());
}

bool Router::route_net(int net) {
  const Design& d = *design_;
  const Netlist& nl = d.netlist();
  const Net& n = nl.net(net);
  NetRoute& nr = net_routes_[net];
  nr = NetRoute{};
  if (!n.routable()) return true;

  // Terminal access node sets, plus a pin-access membership set for dM1
  // classification.
  std::vector<std::vector<GNode>> access(n.pins.size());
  std::unordered_set<std::size_t> pin_access_ids;
  for (std::size_t t = 0; t < n.pins.size(); ++t) {
    const NetPin& p = n.pins[t];
    access[t] = p.is_io() ? graph_.io_access_nodes(p.pin)
                          : graph_.pin_access_nodes(p.inst, p.pin);
    for (const GNode& g : access[t]) {
      if (graph_.valid(g.layer, g.gx, g.gy)) {
        pin_access_ids.insert(graph_.node_id(g.layer, g.gx, g.gy));
      }
    }
  }

  // Terminal ordering: start at the driver, then repeatedly attach the
  // terminal nearest the current tree (Prim on pin positions).
  std::vector<Point> pos(n.pins.size());
  for (std::size_t t = 0; t < n.pins.size(); ++t) {
    pos[t] = d.pin_position(n.pins[t]);
  }
  std::vector<bool> in_tree(n.pins.size(), false);
  in_tree[0] = true;

  // Grid bbox over all terminals + margin.
  int bx0 = graph_.width(), bx1 = 0, by0 = graph_.height(), by1 = 0;
  for (const Point& p : pos) {
    int gx = static_cast<int>(p.x);
    int gy = static_cast<int>(p.y / 2);
    bx0 = std::min(bx0, gx);
    bx1 = std::max(bx1, gx);
    by0 = std::min(by0, gy);
    by1 = std::max(by1, gy);
  }
  bx0 = std::max(0, bx0 - opts_.bbox_margin);
  by0 = std::max(0, by0 - opts_.bbox_margin);
  bx1 = std::min(graph_.width(), bx1 + opts_.bbox_margin);
  by1 = std::min(graph_.height(), by1 + opts_.bbox_margin);

  std::vector<GNode> tree = access[0];
  std::unordered_set<std::size_t> tree_ids;
  for (const GNode& g : tree) {
    tree_ids.insert(graph_.node_id(g.layer, g.gx, g.gy));
  }

  auto commit_edge_wire = [&](std::size_t from_id, int layer) {
    if (nr.wire_edges.insert(from_id).second) {
      state_.add_wire(from_id, 1);
      nr.len_by_layer[layer] += TrackGraph::edge_len_dbu(layer);
    }
  };
  auto commit_edge_via = [&](std::size_t low_id, int low_layer) {
    if (nr.via_edges.insert(low_id).second) {
      state_.add_via(low_id, 1);
      ++nr.vias_by_pair[low_layer];
    }
  };

  bool all_ok = true;
  for (std::size_t k = 1; k < n.pins.size(); ++k) {
    // Nearest unattached terminal to the tree's terminal set.
    std::size_t best = 0;
    Coord best_d = 0;
    bool found = false;
    for (std::size_t t = 1; t < n.pins.size(); ++t) {
      if (in_tree[t]) continue;
      Coord dmin = 0;
      bool first = true;
      for (std::size_t s = 0; s < n.pins.size(); ++s) {
        if (!in_tree[s]) continue;
        Coord dd = manhattan(pos[t], pos[s]);
        if (first || dd < dmin) {
          dmin = dd;
          first = false;
        }
      }
      if (!found || dmin < best_d) {
        best = t;
        best_d = dmin;
        found = true;
      }
    }
    in_tree[best] = true;

    // Zero-length connection: a target access node already on the tree.
    bool direct = false;
    for (const GNode& g : access[best]) {
      if (graph_.valid(g.layer, g.gx, g.gy) &&
          tree_ids.count(graph_.node_id(g.layer, g.gx, g.gy))) {
        direct = true;
        break;
      }
    }
    if (direct) {
      ++nr.dm1;  // abutting pins: dM1 with zero extra wirelength
      continue;
    }

    std::vector<GNode> path =
        state_.search(tree, access[best], net, bx0, by0, bx1, by1);
    if (path.empty()) {
      // Retry over the whole core.
      path = state_.search(tree, access[best], net, 0, 0, graph_.width(),
                           graph_.height());
    }
    if (path.empty()) {
      all_ok = false;
      continue;
    }

    // Classify dM1: all wire edges on M1 and the path starts at a pin
    // access node (not a mid-wire Steiner point).
    bool pure_m1 = true;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const GNode& a = path[i];
      const GNode& b = path[i + 1];
      if (a.layer == b.layer && a.layer != kM1) {
        pure_m1 = false;
        break;
      }
      if (a.layer != b.layer) {
        pure_m1 = false;  // any via to M2+ disqualifies a direct M1 route
        break;
      }
    }
    std::size_t front_id =
        graph_.node_id(path.front().layer, path.front().gx, path.front().gy);
    if (pure_m1 && pin_access_ids.count(front_id)) ++nr.dm1;

    // Commit path edges and extend the tree.
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const GNode& a = path[i];
      const GNode& b = path[i + 1];
      if (a.layer == b.layer) {
        // Wire edge id = low/left endpoint.
        int fx = std::min(a.gx, b.gx);
        int fy = std::min(a.gy, b.gy);
        commit_edge_wire(graph_.node_id(a.layer, fx, fy), a.layer);
      } else {
        int low = std::min(a.layer, b.layer);
        commit_edge_via(graph_.node_id(low, a.gx, a.gy), low);
      }
    }
    for (const GNode& g : path) {
      if (tree_ids.insert(graph_.node_id(g.layer, g.gx, g.gy)).second) {
        tree.push_back(g);
      }
    }
    // The freshly attached pin's other access nodes also join the tree.
    for (const GNode& g : access[best]) {
      if (!graph_.valid(g.layer, g.gx, g.gy)) continue;
      if (tree_ids.insert(graph_.node_id(g.layer, g.gx, g.gy)).second) {
        tree.push_back(g);
      }
    }
  }
  nr.routed = all_ok;
  return all_ok;
}

void Router::rip_up(int net) {
  NetRoute& nr = net_routes_[net];
  for (std::size_t e : nr.wire_edges) state_.add_wire(e, -1);
  for (std::size_t e : nr.via_edges) state_.add_via(e, -1);
  nr = NetRoute{};
}

RouteMetrics Router::route() {
  Timer timer;
  const Netlist& nl = design_->netlist();

  obs::ObsSpan route_span("route.route");
  static obs::Counter& nets_metric = obs::counter("route.nets");
  static obs::Counter& ripup_rounds_metric = obs::counter("route.ripup_rounds");
  static obs::Counter& ripup_victims_metric =
      obs::counter("route.ripup_victims");
  static obs::Histogram& route_sec_metric = obs::histogram("route.sec");
  obs::ScopedTimer route_timer(route_sec_metric);

  // Every call negotiates from scratch, so a second call repeats the first.
  state_.reset();
  net_routes_.assign(net_routes_.size(), NetRoute{});

  std::vector<int> order;
  for (int n = 0; n < nl.num_nets(); ++n) {
    if (!nl.net(n).routable()) continue;
    if (!opts_.route_clock && nl.net(n).is_clock) continue;
    order.push_back(n);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return net_hpwl(*design_, a) < net_hpwl(*design_, b);
  });

  nets_metric.add(static_cast<long>(order.size()));
  route_span.arg("nets", order.size());

  for (int n : order) route_net(n);

  for (int iter = 1; iter < opts_.max_iterations; ++iter) {
    if (state_.total_overflow() == 0) break;
    ripup_rounds_metric.add();
    obs::ObsSpan ripup_span("route.ripup_iteration");
    ripup_span.arg("iter", iter);
    state_.accumulate_history();
    // Rip up nets that currently use an overused edge, then reroute.
    std::vector<std::size_t> bad = state_.overused_edges();
    std::unordered_set<std::size_t> bad_set(bad.begin(), bad.end());
    std::vector<int> victims;
    for (int n : order) {
      for (std::size_t e : net_routes_[n].wire_edges) {
        if (bad_set.count(e)) {
          victims.push_back(n);
          break;
        }
      }
    }
    ripup_victims_metric.add(static_cast<long>(victims.size()));
    ripup_span.arg("victims", victims.size());
    for (int n : victims) rip_up(n);
    for (int n : victims) route_net(n);
  }

  finalize_metrics(timer.seconds());
  obs::gauge("route.drv").set(metrics_.drv);
  obs::gauge("route.unrouted").set(metrics_.unrouted);
  route_span.arg("drv", metrics_.drv).arg("unrouted", metrics_.unrouted);
  return metrics_;
}

void Router::finalize_metrics(double elapsed) {
  metrics_ = RouteMetrics{};
  metrics_.runtime_sec = elapsed;
  for (const NetRoute& nr : net_routes_) {
    for (int l = 0; l < kNumRouteLayers; ++l) {
      metrics_.wl_by_layer[l] += nr.len_by_layer[l];
    }
    metrics_.via12 += nr.vias_by_pair[0];
    metrics_.via23 += nr.vias_by_pair[1];
    metrics_.via34 += nr.vias_by_pair[2];
    metrics_.num_dm1 += nr.dm1;
    if (!nr.routed) ++metrics_.unrouted;
  }
  // Count maximal vertical M1 runs per net as "M1 routing segments".
  for (const NetRoute& nr : net_routes_) {
    if (nr.wire_edges.empty()) continue;
    // A run boundary occurs where an M1 edge lacks an M1 edge directly
    // below it (same net). Count edges whose predecessor edge is absent.
    for (std::size_t e : nr.wire_edges) {
      GNode nd{};
      // Decode: only M1 edges matter.
      const std::size_t per_layer =
          static_cast<std::size_t>(graph_.width() + 1) *
          (graph_.height() + 1);
      if (e >= per_layer) continue;  // not an M1 node id
      nd.layer = kM1;
      nd.gy = static_cast<int>((e % per_layer) / (graph_.width() + 1));
      nd.gx = static_cast<int>((e % per_layer) % (graph_.width() + 1));
      if (nd.gy == 0 ||
          !nr.wire_edges.count(graph_.node_id(kM1, nd.gx, nd.gy - 1))) {
        ++metrics_.num_m1_segments;
      }
    }
  }
  for (int n = 0; n < static_cast<int>(net_routes_.size()); ++n) {
    metrics_.rwl_dbu += net_routes_[n].total_len();
  }
  metrics_.drv = state_.total_overflow();
}

}  // namespace vm1
