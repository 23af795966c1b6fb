#include "cache/solve_cache.h"

#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/hash.h"

namespace vm1::cache {

namespace {

/// MemoryCache caps: entries, and estimated bytes (WindowMemo sizes).
constexpr std::size_t kMemoryCacheEntries = 1u << 16;
constexpr std::size_t kMemoryCacheBytes = 64u << 20;

// Local little-endian helpers: the memo codec versions with the store's
// on-disk format (kStoreFormatVersion), deliberately independent of the
// wire protocol's codec.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

/// Bounds-checked little-endian reader; any short read poisons the cursor
/// so decode_memo fails closed.
struct Cursor {
  const std::uint8_t* p;
  std::size_t len;
  std::size_t off = 0;
  bool ok = true;

  bool take(std::size_t n) {
    if (!ok || len - off < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p[off++];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[off + i]) << (8 * i);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
};

}  // namespace

std::uint64_t default_epoch() {
  return hash::splitmix_mix(kSolverEpoch,
                            static_cast<std::uint64_t>(fault::kNumSites));
}

std::vector<std::uint8_t> encode_memo(const WindowMemo& memo) {
  std::vector<std::uint8_t> out;
  out.reserve(22 + memo.changed.size() * 13);
  put_u64(out, memo.sig2);
  put_u8(out, static_cast<std::uint8_t>(memo.outcome));
  put_u8(out, memo.empty_build ? 1 : 0);
  std::uint64_t obj_bits = 0;
  std::memcpy(&obj_bits, &memo.obj_delta, sizeof(obj_bits));
  put_u64(out, obj_bits);
  put_u32(out, static_cast<std::uint32_t>(memo.changed.size()));
  for (const auto& [inst, pl] : memo.changed) {
    put_i32(out, inst);
    put_i32(out, pl.x);
    put_i32(out, pl.row);
    put_u8(out, pl.flipped ? 1 : 0);
  }
  return out;
}

std::optional<WindowMemo> decode_memo(const std::uint8_t* data,
                                      std::size_t len) {
  Cursor c{data, len};
  WindowMemo m;
  m.sig2 = c.u64();
  std::uint8_t outcome = c.u8();
  std::uint8_t empty = c.u8();
  std::uint64_t obj_bits = c.u64();
  std::uint32_t count = c.u32();
  if (!c.ok || outcome > static_cast<std::uint8_t>(WindowOutcome::kSkipped) ||
      empty > 1) {
    return std::nullopt;
  }
  // 13 bytes per delta entry: a count the remaining bytes can't hold is
  // corruption, not a short read we should loop into.
  if (std::uint64_t(count) * 13 != len - c.off) return std::nullopt;
  m.outcome = static_cast<WindowOutcome>(outcome);
  m.empty_build = empty != 0;
  std::memcpy(&m.obj_delta, &obj_bits, sizeof(m.obj_delta));
  m.changed.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    int inst = c.i32();
    Placement pl;
    pl.x = c.i32();
    pl.row = c.i32();
    std::uint8_t flip = c.u8();
    if (!c.ok || flip > 1) return std::nullopt;
    pl.flipped = flip != 0;
    m.changed.emplace_back(inst, pl);
  }
  if (!c.ok || c.off != len) return std::nullopt;
  return m;
}

std::optional<WindowMemo> PersistentCache::lookup(const WindowSig& sig) {
  static obs::Counter& hit_c = obs::counter("cache.hits");
  static obs::Counter& miss_c = obs::counter("cache.misses");
  static obs::Histogram& hit_sec = obs::histogram("cache.hit_sec");
  const auto start = std::chrono::steady_clock::now();
  auto bytes = store_->lookup(sig.a, sig.b);
  if (!bytes) {
    miss_c.add();
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  auto memo = decode_memo(bytes->data(), bytes->size());
  // A decodable value whose collision guard disagrees with the key is a
  // torn/foreign record: miss, never a wrong hit.
  if (!memo || memo->sig2 != sig.b) {
    miss_c.add();
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hit_c.add();
  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_sec.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return memo;
}

void PersistentCache::store(const WindowSig& sig, const WindowMemo& memo) {
  static obs::Counter& store_c = obs::counter("cache.stores");
  try {
    store_->put(sig.a, sig.b, encode_memo(memo));
  } catch (const CacheError&) {
    return;  // write-through is best-effort; a lost store is a future miss
  }
  store_c.add();
  stores_.fetch_add(1, std::memory_order_relaxed);
}

MemoryCache::MemoryCache() {
  table_.set_memo_limits(kMemoryCacheEntries, kMemoryCacheBytes);
}

std::optional<WindowMemo> MemoryCache::lookup(const WindowSig& sig) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const WindowMemo* m = table_.lookup(sig)) return *m;
  return std::nullopt;
}

void MemoryCache::store(const WindowSig& sig, const WindowMemo& memo) {
  std::lock_guard<std::mutex> lock(mu_);
  table_.store(sig, memo);
}

}  // namespace vm1::cache
