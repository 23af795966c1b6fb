#include "route/maze_router.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace vm1 {

void MazeCostOptions::validate() const {
  auto require = [](bool ok, double v, const char* field, const char* rule) {
    if (ok && std::isfinite(v)) return;
    throw std::invalid_argument(std::string("MazeCostOptions: ") + field +
                                " must be finite and " + rule + ", got " +
                                std::to_string(v));
  };
  require(via_cost > 0, via_cost, "via_cost", "> 0");
  require(overuse_penalty >= 0, overuse_penalty, "overuse_penalty", ">= 0");
  require(history_weight >= 0, history_weight, "history_weight", ">= 0");
}

MazeState::MazeState(const TrackGraph& graph, const MazeCostOptions& opts)
    : graph_(&graph), opts_(opts) {
  opts_.validate();
  // Layers alternate vertical and horizontal, so a walk between two
  // different layers passes both kinds; staying on one layer needs a detour
  // of two vias only when the move needs the other kind.
  for (int a = 0; a < kNumRouteLayers; ++a) {
    for (int b = 0; b < kNumRouteLayers; ++b) {
      for (int need_h = 0; need_h < 2; ++need_h) {
        for (int need_v = 0; need_v < 2; ++need_v) {
          bool other_kind = TrackGraph::is_vertical(a) ? need_h : need_v;
          int changes = a != b ? std::abs(a - b) : (other_kind ? 2 : 0);
          via_floor_[a][b][need_h][need_v] = opts_.via_cost * changes;
        }
      }
    }
  }
  std::size_t n = graph.num_nodes();
  wire_use_.assign(n, 0);
  via_use_.assign(n, 0);
  history_.assign(n * 2, 0.0f);  // [0,n): wire history, [n,2n): via history
  scratch_.assign(n, NodeScratch{});
}

void MazeState::accumulate_history() {
  std::size_t n = graph_->num_nodes();
  for (std::size_t e = 0; e < n; ++e) {
    int over = wire_use_[e] - opts_.wire_capacity;
    if (over > 0) history_[e] += static_cast<float>(over);
    int vover = via_use_[e] - opts_.via_capacity;
    if (vover > 0) history_[n + e] += static_cast<float>(vover);
  }
}

long MazeState::total_overflow() const {
  long total = 0;
  for (int u : wire_use_) total += std::max(0, u - opts_.wire_capacity);
  return total;
}

std::vector<std::size_t> MazeState::overused_edges() const {
  std::vector<std::size_t> out;
  for (std::size_t e = 0; e < wire_use_.size(); ++e) {
    if (wire_use_[e] > opts_.wire_capacity) out.push_back(e);
  }
  return out;
}

void MazeState::reset() {
  std::fill(wire_use_.begin(), wire_use_.end(), 0);
  std::fill(via_use_.begin(), via_use_.end(), 0);
  std::fill(history_.begin(), history_.end(), 0.0f);
}

double MazeState::wire_cost(int layer, std::size_t from_node) const {
  double base = static_cast<double>(TrackGraph::edge_len_dbu(layer));
  int over = wire_use_[from_node] - opts_.wire_capacity + 1;
  double congestion =
      over > 0 ? opts_.overuse_penalty * static_cast<double>(over) : 0.0;
  return base + congestion +
         opts_.history_weight * static_cast<double>(history_[from_node]);
}

double MazeState::via_cost(std::size_t low_node) const {
  int over = via_use_[low_node] - opts_.via_capacity + 1;
  double congestion =
      over > 0 ? opts_.overuse_penalty * static_cast<double>(over) : 0.0;
  std::size_t n = graph_->num_nodes();
  return opts_.via_cost + congestion +
         opts_.history_weight * static_cast<double>(history_[n + low_node]);
}

std::vector<GNode> MazeState::search(const std::vector<GNode>& sources,
                                     const std::vector<GNode>& targets,
                                     int net, int bx0, int by0, int bx1,
                                     int by1) {
  const TrackGraph& g = *graph_;
  ++cur_stamp_;

  std::vector<GNode> goals;
  for (const GNode& t : targets) {
    if (!g.valid(t.layer, t.gx, t.gy)) continue;
    scratch_[g.node_id(t.layer, t.gx, t.gy)].target_stamp = cur_stamp_;
    goals.push_back(t);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double h_len = static_cast<double>(TrackGraph::edge_len_dbu(kM2));
  const double v_len = static_cast<double>(TrackGraph::edge_len_dbu(kM1));
  auto heuristic = [&](const GNode& nd) {
    double best = kInf;
    for (const GNode& t : goals) {
      int dx = std::abs(nd.gx - t.gx);
      int dy = std::abs(nd.gy - t.gy);
      best = std::min(best, h_len * dx + v_len * dy +
                                via_floor_[nd.layer][t.layer][dx > 0][dy > 0]);
    }
    return best;
  };

  // Queue entries are (f = g + h, id); targets never enter the queue.
  RadixQueue& pq = queue_;
  pq.clear();
  long pushed = 0;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t found = kNone;
  double found_g = kInf;

  auto relax = [&](const GNode& nd, std::size_t id, double cost,
                   std::int64_t par) {
    NodeScratch& s = scratch_[id];
    if (s.stamp != cur_stamp_) {
      s.stamp = cur_stamp_;
      s.at = nd;
      s.h = heuristic(nd);
    } else if (cost > s.g) {
      return;
    } else if (cost == s.g) {
      // Rule 1: of two optimal predecessors keep the one with the smaller
      // (g, id), which Dijkstra would have expanded first.
      std::int64_t old = s.parent;
      if (par < 0 || old < 0) return;  // a source listed twice
      double gp = scratch_[static_cast<std::size_t>(par)].g;
      double go = scratch_[static_cast<std::size_t>(old)].g;
      if (gp < go || (gp == go && par < old)) s.parent = par;
      return;
    }
    s.g = cost;
    s.parent = par;
    if (s.target_stamp != cur_stamp_) {
      pq.push(cost + s.h, id);
      ++pushed;
    } else if (cost < found_g || (cost == found_g && id < found)) {
      found = id;  // rule 2: the target with the smallest (g, id)
      found_g = cost;
    }
  };

  // With no target on the lattice there is nothing to search for.
  if (!goals.empty()) {
    for (const GNode& s : sources) {
      if (!g.valid(s.layer, s.gx, s.gy)) continue;
      if (!g.passable(s.layer, s.gx, s.gy, net)) continue;
      relax(s, g.node_id(s.layer, s.gx, s.gy), 0.0, -1);
    }
  }

  long popped = 0;
  while (!pq.empty()) {
    const RadixQueue::Entry& top = pq.top();
    // Rule 2: nothing left with f <= found_g can improve the path.
    if (top.key > found_g) break;
    const double f = top.key;
    const std::size_t id = top.value;
    pq.pop();
    ++popped;
    const NodeScratch& s = scratch_[id];
    const double cost = s.g;
    if (f > cost + s.h) continue;  // superseded by a cheaper entry
    const GNode nd = s.at;
    const auto par = static_cast<std::int64_t>(id);
    // Every edge the search may use has both ends inside the bbox, so a
    // node outside it (a source) expands nothing.
    if (nd.gx < bx0 || nd.gx > bx1 || nd.gy < by0 || nd.gy > by1) continue;

    // A wire edge is identified by its low/left endpoint.
    auto try_wire = [&](const GNode& to, std::size_t to_id, const GNode& low,
                        std::size_t low_id) {
      if (to.gx < bx0 || to.gx > bx1 || to.gy < by0 || to.gy > by1) return;
      if (!g.edge_allowed(nd.layer, low.gx, low.gy, net)) return;
      relax(to, to_id, cost + wire_cost(nd.layer, low_id), par);
    };

    if (TrackGraph::is_vertical(nd.layer)) {
      if (nd.gy < g.height()) {
        GNode up{nd.layer, nd.gx, nd.gy + 1};
        try_wire(up, g.node_id(up.layer, up.gx, up.gy), nd, id);
      }
      if (nd.gy > 0) {
        GNode down{nd.layer, nd.gx, nd.gy - 1};
        std::size_t to = g.node_id(down.layer, down.gx, down.gy);
        try_wire(down, to, down, to);
      }
    } else {
      if (nd.gx < g.width()) {
        GNode right{nd.layer, nd.gx + 1, nd.gy};
        try_wire(right, g.node_id(right.layer, right.gx, right.gy), nd, id);
      }
      if (nd.gx > 0) {
        GNode left{nd.layer, nd.gx - 1, nd.gy};
        std::size_t to = g.node_id(left.layer, left.gx, left.gy);
        try_wire(left, to, left, to);
      }
    }

    // Vias: between layer l and l+1 at this (gx, gy).
    for (int dl : {+1, -1}) {
      GNode to{nd.layer + dl, nd.gx, nd.gy};
      if (to.layer < 0 || to.layer >= kNumRouteLayers) continue;
      if (!g.valid(to.layer, to.gx, to.gy)) continue;
      if (!g.passable(to.layer, to.gx, to.gy, net)) continue;
      std::size_t low_id = g.node_id(std::min(nd.layer, to.layer), nd.gx,
                                     nd.gy);
      relax(to, g.node_id(to.layer, to.gx, to.gy), cost + via_cost(low_id),
            par);
    }
  }

  // One bulk add per search keeps the pop loop metric-free.
  static obs::Counter& searches_metric = obs::counter("route.maze_searches");
  static obs::Counter& expansions_metric =
      obs::counter("route.maze_expansions");
  static obs::Counter& pushes_metric = obs::counter("route.maze_pushes");
  searches_metric.add();
  expansions_metric.add(popped);
  pushes_metric.add(pushed);

  std::vector<GNode> path;
  if (found == kNone) return path;
  std::int64_t cur = static_cast<std::int64_t>(found);
  while (cur >= 0) {
    const NodeScratch& s = scratch_[static_cast<std::size_t>(cur)];
    path.push_back(s.at);
    cur = s.parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace vm1
