#include "core/incremental.h"

#include "util/fault_injection.h"

namespace vm1 {

void IncrementalState::bind(const Design& d) {
  const std::size_t insts =
      static_cast<std::size_t>(d.netlist().num_instances());
  const std::size_t nets = static_cast<std::size_t>(d.netlist().num_nets());
  if (cell_gen_.size() != insts || net_gen_.size() != nets) {
    clear();
    cell_gen_.assign(insts, 0);
    net_gen_.assign(nets, 0);
  }
}

void IncrementalState::mark_changed(const std::vector<int>& insts,
                                    const Netlist& nl) {
  if (insts.empty()) return;
  ++gen_;
  for (int i : insts) {
    cell_gen_[i] = gen_;
    for (int n : nl.nets_of(i)) net_gen_[n] = gen_;
  }
}

bool IncrementalState::clean_since(const std::vector<int>& cells,
                                   const std::vector<int>& nets,
                                   std::uint64_t gen) const {
  for (int c : cells) {
    if (cell_gen_[c] > gen) return false;
  }
  for (int n : nets) {
    if (net_gen_[n] > gen) return false;
  }
  return true;
}

const WindowMemo* IncrementalState::lookup(const WindowSig& sig) const {
  auto it = memo_.find(sig.a);
  if (it == memo_.end() || it->second.sig2 != sig.b) return nullptr;
  return &it->second;
}

std::size_t IncrementalState::memo_cost(const WindowMemo& m) {
  // Rough resident estimate: struct + hash-table slot + delta payload.
  return sizeof(WindowMemo) + 64 +
         m.changed.size() * sizeof(std::pair<int, Placement>);
}

void IncrementalState::store(const WindowSig& sig, WindowMemo memo) {
  memo.sig2 = sig.b;
  auto it = memo_.find(sig.a);
  if (it != memo_.end()) {
    // Overwrite keeps the key's original FIFO position.
    memo_bytes_ -= memo_cost(it->second);
    memo_bytes_ += memo_cost(memo);
    it->second = std::move(memo);
  } else {
    memo_bytes_ += memo_cost(memo);
    memo_fifo_.push_back(sig.a);
    memo_.emplace(sig.a, std::move(memo));
  }
  evict_to_limits();
}

void IncrementalState::set_memo_limits(std::size_t max_entries,
                                       std::size_t max_bytes) {
  max_memo_entries_ = max_entries == 0 ? 1 : max_entries;
  max_memo_bytes_ = max_bytes == 0 ? 1 : max_bytes;
  evict_to_limits();
}

void IncrementalState::evict_to_limits() {
  while ((memo_.size() > max_memo_entries_ ||
          memo_bytes_ > max_memo_bytes_) &&
         !memo_fifo_.empty()) {
    std::uint64_t victim = memo_fifo_.front();
    memo_fifo_.pop_front();
    auto vit = memo_.find(victim);
    if (vit == memo_.end()) continue;
    memo_bytes_ -= memo_cost(vit->second);
    memo_.erase(vit);
    ++memo_evictions_;
  }
}

void IncrementalState::clear() {
  gen_ = 0;
  cell_gen_.clear();
  net_gen_.clear();
  memo_.clear();
  memo_fifo_.clear();
  memo_bytes_ = 0;
}

WindowSig window_signature(const Design& d, const Window& win,
                           const std::vector<int>& movable,
                           const std::vector<int>& owner, int self,
                           const std::vector<int>& incident_nets,
                           const SiteMask& fixed_mask,
                           const DistOptOptions& opts) {
  SignatureHasher h;

  // Window geometry and pass shape.
  h.add_int(win.x0);
  h.add_int(win.x1);
  h.add_int(win.row0);
  h.add_int(win.row1);
  h.add_int(opts.lx);
  h.add_int(opts.ly);
  h.add_bool(opts.allow_move);
  h.add_bool(opts.allow_flip);
  h.add_bool(opts.rounding_fallback);
  h.add_bool(opts.greedy_fallback);

  // Objective parameters. beta_of(net) is hashed per incident net below,
  // which covers both the default beta and any net_beta override.
  const VM1Params& p = opts.params;
  h.add_double(p.alpha);
  h.add_double(p.epsilon);
  h.add_int(p.gamma);
  h.add_int(p.gamma_closed);
  h.add_int(static_cast<long long>(p.delta));
  h.add_int(p.max_pairs_per_net);

  // Solver configuration: everything BranchAndBound/SimplexSolver read.
  // These are static limits, not wall-clock samples — two runs with equal
  // limits sign equally; see DESIGN.md for the truncated-solve caveat.
  const milp::BranchAndBound::Options& mo = opts.mip;
  h.add_int(mo.max_nodes);
  h.add_double(mo.time_limit_sec);
  h.add_double(mo.int_tol);
  h.add_double(mo.gap_tol);
  h.add_bool(mo.use_warm_start);
  h.add_int(mo.lp_options.max_iterations);
  h.add_double(mo.lp_options.time_limit_sec);
  h.add_double(mo.lp_options.tol);
  h.add_double(mo.lp_options.pivot_tol);

  // Fault-injection schedule: deterministic per (config, window key), so
  // the config is part of the signature — reconfiguring VM1_FAULTS
  // invalidates every memo entry instead of replaying stale fault drills.
  const fault::Config& fc = fault::config();
  for (double r : fc.rate) h.add_double(r);
  h.add(fc.seed);

  // Movable cells: ids, positions, orientations.
  h.add_int(static_cast<long long>(movable.size()));
  for (int inst : movable) {
    const Placement& pl = d.placement(inst);
    h.add_int(inst);
    h.add_int(pl.x);
    h.add_int(pl.row);
    h.add_bool(pl.flipped);
  }

  // Fixed-site occupancy: cells that are not movable here can protrude
  // into the window (and change across passes with other grids) without
  // sharing a net with any movable cell, so net dirtiness alone cannot
  // see them — the mask makes the signature exact. Bits are packed into
  // words so the hash cost stays proportional to the window area.
  std::uint64_t word = 0;
  int bits = 0;
  for (const std::vector<bool>& row : fixed_mask) {
    for (bool b : row) {
      word = (word << 1) | (b ? 1u : 0u);
      if (++bits == 64) {
        h.add(word);
        word = 0;
        bits = 0;
      }
    }
  }
  if (bits > 0) h.add(word);

  // Incident nets: per-net weight plus every boundary terminal — pins
  // owned by cells outside the movable set (fixed neighbors, cells of
  // other windows, primary IOs). Their absolute geometry is folded into
  // the MILP's bounds, so it must be part of the signature.
  const Netlist& nl = d.netlist();
  h.add_int(static_cast<long long>(incident_nets.size()));
  for (int net : incident_nets) {
    h.add_int(net);
    h.add_double(p.beta_of(net));
    for (const NetPin& np : nl.net(net).pins) {
      if (np.is_io()) {
        const Point& pos = d.io_position(np.pin);
        h.add_int(static_cast<long long>(pos.x));
        h.add_int(static_cast<long long>(pos.y));
        continue;
      }
      if (owner[static_cast<std::size_t>(np.inst)] == self) continue;
      Point pos = d.pin_position(np);
      h.add_int(static_cast<long long>(pos.x));
      h.add_int(static_cast<long long>(pos.y));
      std::pair<Coord, Coord> span = d.pin_span_abs(np.inst, np.pin);
      h.add_int(static_cast<long long>(span.first));
      h.add_int(static_cast<long long>(span.second));
    }
  }

  return WindowSig{h.low(), h.high()};
}

}  // namespace vm1
