/// \file incremental.h
/// Dirty-window incremental re-solve engine for DistOpt.
///
/// After the first sweep of a VM1Opt run most windows are untouched: their
/// cells and incident nets have not moved, so re-building and re-solving
/// their MILPs is pure waste. This module provides the two pieces that let
/// dist_opt() skip that work *exactly*:
///
///  1. Net-level change tracking (IncrementalState): when a window's
///     accepted solution moves or flips cells, every cell and every net
///     incident to those cells gets the current generation stamp. A window
///     is clean since generation g iff none of its movable cells nor any of
///     its incident nets was stamped after g — this propagates dirtiness to
///     every window whose cell set touches a dirty net, including
///     diagonal-batch neighbors in later batches of the same pass.
///
///  2. A canonical window signature (window_signature): a stable 128-bit
///     FNV-style hash over everything the window solve depends on — window
///     geometry, movable cell ids/positions/orientations, the fixed-site
///     mask, the parameter set and MIP configuration, per-net weights,
///     boundary-pin terminals of incident nets, and the fault-injection
///     config. No wall-clock or address-dependent input ever enters the
///     hash, so signatures are reproducible across runs and platforms.
///
/// A memo entry (WindowMemo) records the outcome and the exact placement
/// delta a signature produced. A later window whose signature matches and
/// whose cells/nets are clean since the entry was recorded is *skipped*:
/// the recorded delta is replayed without building the MILP, which is
/// bit-identical to re-solving because the whole window pipeline is a
/// deterministic function of the signed inputs (see DESIGN.md
/// "Incremental re-solve & memoization" for the caveat around solves that
/// a wall-clock limit in the MIP options truncated).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dist_opt.h"
#include "util/hash.h"

namespace vm1 {

/// The signature stream hasher lives in util/hash.h (shared with the wire
/// checksums and fault keys); the historical unqualified name stays valid
/// for every signature-computing call site.
using hash::SignatureHasher;

/// 128-bit window signature. `a` keys the memo table; `b` is stored in the
/// entry and must also match on lookup, so a false skip needs a full
/// 128-bit collision *and* a clean dirtiness check.
struct WindowSig {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const WindowSig&, const WindowSig&) = default;
};

/// Recorded result of one window solve, replayable without the MILP.
struct WindowMemo {
  std::uint64_t sig2 = 0;         ///< WindowSig::b (collision guard)
  std::uint64_t recorded_gen = 0; ///< generation when the entry was stored
  WindowOutcome outcome = WindowOutcome::kKept;  ///< outcome when recorded
  bool empty_build = false;       ///< build_window_milp() returned empty
  double obj_delta = 0;           ///< window-local improvement when recorded
  /// Exact placement delta the solve produced (empty for fixpoints, which
  /// is the common case: a window that re-solves to identity).
  std::vector<std::pair<int, Placement>> changed;
};

/// Second-tier memo storage behind IncrementalState — the seam the solve
/// cache (src/cache) plugs into. The in-memory memo table is tier 1; a
/// backend, when attached, is tier 2: probed on a tier-1 miss, written
/// through on every memoized solve. Unlike tier-1 hits, a backend hit is
/// trusted on the full 128-bit signature alone — no clean_since() check —
/// because backend entries outlive the run and cross-run generation stamps
/// are meaningless; the signature covers every input the solve reads, so
/// matching it IS the cleanliness proof. Implementations must be
/// thread-safe: dist_opt() probes from its parallel prepare phase.
class CacheBackend {
 public:
  virtual ~CacheBackend() = default;
  /// Memo for `sig`, or nullopt on miss. Must never return a value for a
  /// different signature (a corrupt or torn store entry is a miss).
  virtual std::optional<WindowMemo> lookup(const WindowSig& sig) = 0;
  /// Write-through of a freshly recorded memo. Failures must be absorbed
  /// (a lost store is a future miss, not an error).
  virtual void store(const WindowSig& sig, const WindowMemo& memo) = 0;
};

/// Cross-pass state of the incremental engine: per-cell and per-net dirty
/// generations plus the signature-keyed memo table. One instance is owned
/// by the vm1opt() driver (or a test) and shared by every DistOpt pass on
/// the same design. All mutation happens in the serial apply phase of
/// dist_opt(); the parallel solve phase only reads.
class IncrementalState {
 public:
  /// Sizes the generation arrays for `d`. Re-binding to a design with a
  /// different instance/net count resets all state.
  void bind(const Design& d);

  bool bound() const { return !cell_gen_.empty() || !net_gen_.empty(); }
  std::uint64_t generation() const { return gen_; }

  /// Bumps the generation and stamps `insts` and every net incident to
  /// them.
  void mark_changed(const std::vector<int>& insts, const Netlist& nl);

  /// True iff no cell in `cells` and no net in `nets` was stamped after
  /// generation `gen`.
  bool clean_since(const std::vector<int>& cells,
                   const std::vector<int>& nets, std::uint64_t gen) const;

  /// Memo entry for `sig`, or nullptr on miss (absent or secondary-hash
  /// mismatch). The pointer is invalidated by store()/clear().
  const WindowMemo* lookup(const WindowSig& sig) const;

  /// Inserts or overwrites the entry for `sig`. The table is bounded by
  /// entry and byte caps (set_memo_limits): exceeding either evicts the
  /// oldest-inserted entries first. Correctness is unaffected — a lost
  /// entry is just a future miss — but unlike the historical wholesale
  /// clear, eviction is incremental and counted (memo_evictions), so a
  /// long service run degrades smoothly instead of periodically losing the
  /// whole table.
  void store(const WindowSig& sig, WindowMemo memo);

  /// Caps for the memo table. Defaults: 1M entries / 256 MiB estimated.
  void set_memo_limits(std::size_t max_entries, std::size_t max_bytes);

  /// Attaches (or detaches, with nullptr) the tier-2 backend. Not owned;
  /// must outlive every dist_opt() pass run against this state.
  void set_backend(CacheBackend* backend) { backend_ = backend; }
  CacheBackend* backend() const { return backend_; }

  std::size_t memo_entries() const { return memo_.size(); }
  std::size_t memo_bytes() const { return memo_bytes_; }
  long memo_evictions() const { return memo_evictions_; }
  void clear();

 private:
  static std::size_t memo_cost(const WindowMemo& m);
  /// Evicts oldest-inserted entries until both caps hold.
  void evict_to_limits();

  std::size_t max_memo_entries_ = 1u << 20;
  std::size_t max_memo_bytes_ = 256u << 20;
  std::uint64_t gen_ = 0;
  std::vector<std::uint64_t> cell_gen_;
  std::vector<std::uint64_t> net_gen_;
  std::unordered_map<std::uint64_t, WindowMemo> memo_;
  std::deque<std::uint64_t> memo_fifo_;  ///< keys in first-insertion order
  std::size_t memo_bytes_ = 0;
  long memo_evictions_ = 0;
  CacheBackend* backend_ = nullptr;
};

/// Canonical signature of one window solve under `opts`: hashes the window
/// geometry, displacement bounds and pass flags, VM1Params (including
/// per-net beta of every incident net), the MIP/LP configuration, the
/// fault-injection config, the movable cells' ids and placements, the
/// fixed-site mask, and — for every incident net — each pin *not* owned by
/// a movable cell (boundary terminals: position, and span for instance
/// pins). `movable` is hashed in its given order (partition_windows builds
/// it ascending). Ownership is one lookup per pin: `owner` is indexed by
/// instance, and `owner[i] == self` exactly for the instances in `movable`
/// — dist_opt passes its grid's WindowGrid::owner and the window index; a
/// caller without a grid marks `movable` on an array of its own.
/// `fixed_mask` must equal fixed_site_mask(d, win, movable): dist_opt
/// passes its pass's window_fixed_masks entry, and a caller without a
/// window grid computes it. The signature reads only the window's own
/// cells, nets and sites, never the whole design.
WindowSig window_signature(const Design& d, const Window& win,
                           const std::vector<int>& movable,
                           const std::vector<int>& owner, int self,
                           const std::vector<int>& incident_nets,
                           const SiteMask& fixed_mask,
                           const DistOptOptions& opts);

}  // namespace vm1
