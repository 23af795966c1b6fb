/// \file solve_cache.h
/// The solve-cache backends behind the CacheBackend tier-2 seam of
/// IncrementalState (src/core/incremental.h): a persistent CacheStore, or
/// a bounded table in memory.
///
/// The key is the existing 128-bit window signature — it already covers
/// every input the window solve reads (geometry, cells, boundary pins,
/// params, MIP config, fault schedule) — combined with a store-level
/// *epoch* that fingerprints the solve semantics themselves (solver
/// algorithm generation, fault-site census). Signature equality under a
/// matching epoch is therefore a proof that replaying the recorded delta
/// is bit-identical to re-solving; when solver behavior changes, bumping
/// kSolverEpoch invalidates every persisted entry at open instead of
/// risking stale replays.
///
/// Values are WindowMemo records serialized with a self-contained
/// little-endian codec (no dist/wire dependency — the wire protocol and
/// the disk format version independently). Any malformed value decodes to
/// nullopt, which the backend reports as a clean miss.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "cache/store.h"
#include "core/incremental.h"

namespace vm1::cache {

/// Bump when the window-solve semantics change in a way the signature
/// cannot see (solver algorithm rework, objective redefinition). Persisted
/// entries from other epochs are discarded at open.
inline constexpr std::uint64_t kSolverEpoch = 3;

/// The epoch a store must be opened with for this build's solver: the
/// solver generation mixed with the fault-site census (adding a site
/// renumbers fault keys, which reshuffles injected-fault outcomes).
std::uint64_t default_epoch();

/// WindowMemo <-> bytes. recorded_gen is NOT persisted: generations are
/// run-local, and backend hits are trusted on the signature alone. decode
/// returns nullopt for any malformed input (short, oversized counts,
/// trailing bytes) — never a partial memo.
std::vector<std::uint8_t> encode_memo(const WindowMemo& memo);
std::optional<WindowMemo> decode_memo(const std::uint8_t* data,
                                      std::size_t len);

/// CacheBackend over a persistent CacheStore. Thread-safe (the store
/// serializes internally). Instruments cache.hits / cache.misses /
/// cache.stores counters and the cache.hit_sec lookup-latency histogram.
class PersistentCache : public CacheBackend {
 public:
  /// `store` is borrowed and must outlive the cache.
  explicit PersistentCache(CacheStore* store) : store_(store) {}

  std::optional<WindowMemo> lookup(const WindowSig& sig) override;
  void store(const WindowSig& sig, const WindowMemo& memo) override;

  CacheStore* backing() const { return store_; }
  long hits() const { return hits_; }
  long misses() const { return misses_; }
  long stores() const { return stores_; }

 private:
  CacheStore* store_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> stores_{0};
};

/// CacheBackend held in memory, for a long-lived process without a
/// persistent store (vm1_serve without --cache): IncrementalState's memo
/// table under one lock, capped at 65,536 entries and 64 MiB with
/// oldest-first eviction. Entries live as long as the cache.
class MemoryCache : public CacheBackend {
 public:
  MemoryCache();

  std::optional<WindowMemo> lookup(const WindowSig& sig) override;
  void store(const WindowSig& sig, const WindowMemo& memo) override;

 private:
  std::mutex mu_;
  IncrementalState table_;
};

}  // namespace vm1::cache
