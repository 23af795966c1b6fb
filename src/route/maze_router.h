/// \file maze_router.h
/// Negotiated-congestion maze search over the TrackGraph.
///
/// Implements the inner engine of a PathFinder-style router: multi-source /
/// multi-target A* with present-congestion and history costs, which returns
/// exactly the path a Dijkstra search over the same costs would. The outer
/// rip-up-and-reroute loop lives in router.h.
#pragma once

#include <cstdint>
#include <vector>

#include "route/radix_queue.h"
#include "route/track_graph.h"

namespace vm1 {

/// Cost parameters for negotiated congestion. A wire edge costs its length
/// (TrackGraph::edge_len_dbu) and a via `via_cost`, each plus
/// `overuse_penalty` per unit of overuse and `history_weight` times the
/// edge's history. The search's heuristic is a lower bound only while those
/// additions are non-negative, and its path equals Dijkstra's only while
/// every edge costs more than zero, so validate() rejects anything else. The
/// equality is bit-exact when these three costs are integers: history
/// counts whole overuse units, so every path sum is then exact in `double`.
struct MazeCostOptions {
  double via_cost = 4.0;
  double overuse_penalty = 12.0;  ///< added per unit of overuse on an edge
  double history_weight = 2.0;
  int wire_capacity = 1;
  int via_capacity = 4;

  /// Throws std::invalid_argument naming the field unless via_cost > 0 and
  /// overuse_penalty, history_weight >= 0, all finite. MazeState's
  /// constructor validates.
  void validate() const;
};

/// Shared routing state: per-edge usage and history. Wire edges are
/// identified by their *from* node id (the +direction edge leaving that
/// node along the layer); vias by the lower-layer node id.
class MazeState {
 public:
  MazeState(const TrackGraph& graph, const MazeCostOptions& opts);

  const TrackGraph& graph() const { return *graph_; }
  const MazeCostOptions& options() const { return opts_; }

  int wire_use(std::size_t from_node) const { return wire_use_[from_node]; }
  int via_use(std::size_t low_node) const { return via_use_[low_node]; }
  void add_wire(std::size_t from_node, int delta) {
    wire_use_[from_node] += delta;
  }
  void add_via(std::size_t low_node, int delta) {
    via_use_[low_node] += delta;
  }

  /// Adds current overuse into the history map (end of a rip-up iteration).
  void accumulate_history();
  /// Total wire-edge overuse (the DRV proxy).
  long total_overflow() const;
  /// Collects nodes whose outgoing wire edge is overused.
  std::vector<std::size_t> overused_edges() const;

  /// Zeroes usage and history: the state of a fresh MazeState.
  void reset();

  /// Cheapest path for `net` from any of `sources` to any of `targets`,
  /// restricted to grid bbox [bx0,bx1]x[by0,by1]. Returns the node path
  /// from a source to a target (inclusive), or empty when unreachable.
  /// Sources the net may not occupy and nodes off the lattice are ignored.
  ///
  /// The path is the one a Dijkstra search popping nodes in (g, id) order
  /// and stopping at the first target would return: the target with the
  /// smallest (g, id), and at every node the optimal predecessor with the
  /// smallest (g, id), where g is the cost from the sources. Both depend
  /// only on the graph and its costs, so an A* search can find them:
  ///   * the heuristic h is the exact distance to the nearest target in
  ///     the same four-layer lattice without blockage or congestion,
  ///     |dx|·len(H) + |dy|·len(V) + via_cost·L, where L is the fewest
  ///     layer changes that reach the target's layer through a horizontal
  ///     layer when dx != 0 and a vertical one when dy != 0. Every real
  ///     edge costs at least its lattice price, so h is consistent and a
  ///     node's g is final when it is popped in f = g + h order;
  ///   * rule 1: a relax that reaches a node at its current g takes the
  ///     new predecessor when its (g, id) is smaller;
  ///   * rule 2: targets are never expanded; the search keeps the target
  ///     with the smallest (g, id) and pops until the smallest f left
  ///     exceeds that g. Every optimal predecessor of a node on the path
  ///     has f no greater than it, so it has been expanded by then.
  /// The open list is a monotone radix queue (radix_queue.h) keyed on f.
  /// It pops equal keys last-in first-out, not in (f, id) order; that moves
  /// no path, since the loop runs until every optimal predecessor (f no
  /// greater than the target's g) has been expanded whatever the order
  /// among equal keys, and changes only how many superseded entries pop.
  /// A push below the last key popped, which only rounding under costs
  /// inexact in binary causes, is clamped to it.
  /// Preconditions: the costs pass MazeCostOptions::validate(), which makes
  /// every edge cost positive and h a lower bound. h is computed once per
  /// node per search and cached beside its g.
  ///
  /// Work counters, added once per search: `route.maze_searches`,
  /// `route.maze_expansions` (pops, superseded entries included) and
  /// `route.maze_pushes`.
  std::vector<GNode> search(const std::vector<GNode>& sources,
                            const std::vector<GNode>& targets, int net,
                            int bx0, int by0, int bx1, int by1);

  /// Price of the wire edge leaving `from_node` along `layer` / of the via
  /// above `low_node`, at the current usage and history.
  double wire_cost(int layer, std::size_t from_node) const;
  double via_cost(std::size_t low_node) const;

 private:
  const TrackGraph* graph_;
  MazeCostOptions opts_;
  std::vector<int> wire_use_;
  std::vector<int> via_use_;
  std::vector<float> history_;

  /// via_cost times the fewest layer changes from layer a to layer b on a
  /// walk that visits a horizontal layer when need_h and a vertical one
  /// when need_v: the via part of the heuristic, [a][b][need_h][need_v].
  double via_floor_[kNumRouteLayers][kNumRouteLayers][2][2] = {};

  /// Search scratch for one node, valid while `stamp` is the current
  /// search's; stamping avoids an O(N) clear per search.
  struct NodeScratch {
    double g = 0.0;             ///< cost from the sources
    double h = 0.0;             ///< heuristic
    std::int64_t parent = -1;   ///< predecessor's id, -1 at a source
    std::uint32_t stamp = 0;
    std::uint32_t target_stamp = 0;  ///< current search's: a target
    GNode at;  ///< the node itself, so a pop reads (layer, gx, gy)
  };
  std::vector<NodeScratch> scratch_;
  RadixQueue queue_;  ///< open list of (f, id), cleared by each search
  std::uint32_t cur_stamp_ = 0;
};

}  // namespace vm1
