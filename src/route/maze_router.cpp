#include "route/maze_router.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <queue>
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
  dist_.assign(n, 0.0);
  h_.assign(n, 0.0);
  parent_.assign(n, -1);
  stamp_.assign(n, 0);
  target_stamp_.assign(n, 0);
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
    target_stamp_[g.node_id(t.layer, t.gx, t.gy)] = cur_stamp_;
    goals.push_back(t);
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
  using QE = std::pair<double, std::size_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t found = kNone;
  double found_g = kInf;

  auto relax = [&](std::size_t id, double cost, std::int64_t par) {
    if (stamp_[id] != cur_stamp_) {
      stamp_[id] = cur_stamp_;
      h_[id] = heuristic(decode(id));
    } else if (cost > dist_[id]) {
      return;
    } else if (cost == dist_[id]) {
      // Rule 1: of two optimal predecessors keep the one with the smaller
      // (g, id), which Dijkstra would have expanded first.
      std::int64_t old = parent_[id];
      if (par < 0 || old < 0) return;  // a source listed twice
      double gp = dist_[static_cast<std::size_t>(par)];
      double go = dist_[static_cast<std::size_t>(old)];
      if (gp < go || (gp == go && par < old)) parent_[id] = par;
      return;
    }
    dist_[id] = cost;
    parent_[id] = par;
    if (target_stamp_[id] != cur_stamp_) {
      pq.push({cost + h_[id], id});
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
      relax(g.node_id(s.layer, s.gx, s.gy), 0.0, -1);
    }
  }

  long popped = 0;
  // Rule 2: nothing left with f <= found_g can improve the path.
  while (!pq.empty() && pq.top().first <= found_g) {
    auto [f, id] = pq.top();
    pq.pop();
    ++popped;
    const double cost = dist_[id];
    if (f > cost + h_[id]) continue;  // superseded by a cheaper entry
    GNode nd = decode(id);

    auto try_wire = [&](int fx, int fy, int tx, int ty, std::size_t from_id,
                        std::size_t to_id) {
      // Edge is identified by its low/left endpoint (fx, fy).
      if (fx < bx0 || tx > bx1 || fy < by0 || ty > by1) return;
      if (!g.edge_allowed(nd.layer, fx, fy, net)) return;
      double c = cost + wire_cost(nd.layer, from_id);
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
      double c = cost + via_cost(low_id);
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
  if (found == kNone) return path;
  std::int64_t cur = static_cast<std::int64_t>(found);
  while (cur >= 0) {
    path.push_back(decode(static_cast<std::size_t>(cur)));
    cur = parent_[static_cast<std::size_t>(cur)];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace vm1
