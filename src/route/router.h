/// \file router.h
/// PathFinder-style rip-up-and-reroute detailed router.
///
/// Stands in for the commercial router (Innovus) in the paper's flow. All
/// Table-2 routing metrics come from here:
///   * RWL        — total routed wirelength (DBU, all layers M1..M4);
///   * M1 WL      — wirelength on M1 only;
///   * #via12     — vias between M1 and M2;
///   * #dM1       — direct vertical M1 routes: 2-pin (sub)net connections
///                  realized with a single vertical M1 segment (zero-length
///                  abutments included);
///   * #DRV       — remaining wire-edge overflow after the final iteration
///                  (the design-rule-violation proxy).
#pragma once

#include <unordered_set>
#include <vector>

#include "route/maze_router.h"

namespace vm1 {

struct RouterOptions {
  int max_iterations = 5;   ///< rip-up and reroute rounds
  int bbox_margin = 16;     ///< grid margin around a net's terminal bbox
  MazeCostOptions cost;
  TrackGraphOptions graph;
  bool route_clock = true;  ///< include clock nets
};

struct RouteMetrics {
  long rwl_dbu = 0;
  long wl_by_layer[kNumRouteLayers] = {0, 0, 0, 0};
  long via12 = 0;
  long via23 = 0;
  long via34 = 0;
  long num_dm1 = 0;
  long num_m1_segments = 0;  ///< connected vertical M1 runs in the design
  long drv = 0;
  int unrouted = 0;
  double runtime_sec = 0;

  long m1_wl_dbu() const { return wl_by_layer[kM1]; }
};

/// Per-net routed data. `routed` defaults to true so nets the router never
/// attempts (unroutable single-pin stubs, excluded clocks) are not counted
/// as failures; route_net() sets it false on an actual search failure.
struct NetRoute {
  bool routed = true;
  int dm1 = 0;  ///< direct vertical M1 connections on this net
  std::unordered_set<std::size_t> wire_edges;  ///< edge ids (from-node)
  std::unordered_set<std::size_t> via_edges;   ///< low-node ids
  long len_by_layer[kNumRouteLayers] = {0, 0, 0, 0};
  int vias_by_pair[kNumRouteLayers - 1] = {0, 0, 0};

  long total_len() const {
    long t = 0;
    for (long l : len_by_layer) t += l;
    return t;
  }
};

/// Routes the design in its *current* placement. Create a fresh Router after
/// any placement change.
class Router {
 public:
  explicit Router(const Design& d, const RouterOptions& opts = {});

  /// Runs the full negotiated-congestion flow and returns the metrics.
  /// Each call starts from zero usage and history, so calls repeat.
  RouteMetrics route();

  const TrackGraph& graph() const { return graph_; }
  const MazeState& state() const { return state_; }
  const std::vector<NetRoute>& net_routes() const { return net_routes_; }
  const RouteMetrics& metrics() const { return metrics_; }

  /// Per-net routed wirelength in DBU (0 when unrouted); used by STA/power.
  long net_length_dbu(int net) const {
    return net_routes_[net].total_len();
  }

 private:
  bool route_net(int net);
  void rip_up(int net);
  void finalize_metrics(double elapsed);

  const Design* design_;
  RouterOptions opts_;
  TrackGraph graph_;
  MazeState state_;
  std::vector<NetRoute> net_routes_;
  RouteMetrics metrics_;
};

}  // namespace vm1
