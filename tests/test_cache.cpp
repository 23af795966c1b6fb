/// Solve-cache suite (src/cache + the shared hash primitives + the
/// tier-2 seam in core/incremental): run with `ctest -L cache`.
///
/// Layer 1 freezes the hash constants — window signatures key the
/// persistent store and the golden corpus, so a changed bit pattern is a
/// cache-epoch/golden-regeneration event that must fail loudly, never
/// pass as a refactor.
///
/// Layer 2 exercises the on-disk store's whole failure matrix from
/// store.h: reopen persistence, truncated tails, bit flips, stale
/// epochs, old formats, the single-writer lock, and LRU eviction. A
/// damaged store must degrade to misses, never wrong hits.
///
/// Layer 3 is the acceptance check: a warm rerun through a persistent
/// store or the in-memory backend must serve its windows from cache (no
/// MILP) while producing bit-identical placements, objective, and HPWL —
/// clean and under the 25% fault storm — also when a worker fleet solved
/// the cold run (kCachedRemote, no request to the fleet).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/solve_cache.h"
#include "cache/store.h"
#include "core/incremental.h"
#include "core/vm1opt.h"
#include "design/legality.h"
#include "core/window.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/rng.h"

namespace vm1 {
namespace {

// ---------------------------------------------------------------------------
// Layer 1: frozen hash constants.

TEST(HashPrimitives, Fnv1a64FrozenVectors) {
  // Offset basis: hashing nothing returns the FNV-1a basis itself.
  EXPECT_EQ(hash::fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(hash::fnv1a64(abc, 3), 0xe71fa2190541574bULL);
}

TEST(HashPrimitives, SplitmixFrozenVectors) {
  EXPECT_EQ(hash::splitmix_finalize(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(hash::splitmix_mix(1, 2), 0xa3efbcce2e044f84ULL);
}

TEST(HashPrimitives, SignatureHasherFrozenVector) {
  hash::SignatureHasher h;
  h.add(1);
  h.add(2);
  h.add(3);
  EXPECT_EQ(h.low(), 0x6da0eea95f45479eULL);
  EXPECT_EQ(h.high(), 0x85261fd452e00e9fULL);
}

TEST(HashPrimitives, DefaultEpochIsStableWithinABuild) {
  // The epoch mixes the solver generation with the fault-site census;
  // within one build it must be a constant (two stores opened by the same
  // binary always agree).
  EXPECT_EQ(cache::default_epoch(), cache::default_epoch());
  EXPECT_NE(cache::default_epoch(), 0u);
}

// The signature keys the store, and a worker recomputes it to prove its
// replica agrees: dist_opt decides a pin's ownership through the grid's
// per-instance window index, the worker through its request's movable list
// marked on a replica-sized array. Every window of a pass must sign the
// same both ways.
TEST(WindowSignature, WorkerAndPassAgree) {
  const CellArch archs[] = {CellArch::kConventional12T, CellArch::kClosedM1,
                            CellArch::kOpenM1};
  for (CellArch arch : archs) {
    DesignOptions dopt;
    dopt.scale = 0.5;
    dopt.seed = 5;
    Design d = make_design("tiny", arch, dopt);
    global_place(d, GlobalPlaceOptions{});
    legalize(d);
    std::vector<int> marks(
        static_cast<std::size_t>(d.netlist().num_instances()), -1);
    int signed_windows = 0;
    for (bool flip_pass : {false, true}) {
      DistOptOptions o;
      o.bw = 12;
      o.bh = 2;
      o.tx = flip_pass ? 6 : 0;
      o.ty = flip_pass ? 1 : 0;
      o.lx = flip_pass ? 0 : 3;
      o.ly = flip_pass ? 0 : 1;
      o.allow_move = !flip_pass;
      o.allow_flip = flip_pass;
      WindowGrid grid = partition_windows(d, o.tx, o.ty, o.bw, o.bh);
      std::vector<std::vector<int>> nets =
          window_incident_nets(grid, d.netlist());
      std::vector<SiteMask> masks = window_fixed_masks(grid, d);
      for (std::size_t w = 0; w < grid.windows.size(); ++w) {
        if (grid.movable[w].empty()) continue;
        const int widx = static_cast<int>(w);
        dist::WireRequest rq;
        rq.job.widx = widx;
        rq.job.window = grid.windows[w];
        rq.job.movable = grid.movable[w];
        rq.job.lx = o.lx;
        rq.job.ly = o.ly;
        rq.job.allow_move = o.allow_move;
        rq.job.allow_flip = o.allow_flip;
        rq.job.rounding_fallback = o.rounding_fallback;
        rq.job.params = o.params;
        rq.job.mip = o.mip;
        rq.greedy_fallback = o.greedy_fallback;
        const WindowSig pass =
            window_signature(d, grid.windows[w], grid.movable[w], grid.owner,
                             widx, nets[w], masks[w], o);
        EXPECT_EQ(dist::replica_signature(d, rq, marks), pass)
            << to_string(arch) << (flip_pass ? " flip" : " move")
            << " pass, window " << w;
        ++signed_windows;
      }
    }
    EXPECT_GT(signed_windows, 10) << to_string(arch);
    EXPECT_TRUE(std::all_of(marks.begin(), marks.end(),
                            [](int m) { return m == -1; }))
        << "replica_signature must leave its marks cleared";
  }
}

// ---------------------------------------------------------------------------
// Layer 2: the on-disk store's failure matrix.

/// Fresh temp store directory per test, removed on teardown.
class StoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/vm1_cache_testXXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    std::system(cmd.c_str());
  }

  cache::StoreOptions opts(std::uint64_t epoch = 7) {
    cache::StoreOptions o;
    o.dir = dir_;
    o.epoch = epoch;
    return o;
  }

  std::string log_path() const { return dir_ + "/cache.log"; }

  /// Byte-patches the log at `off` (negative: relative to EOF).
  void patch_log(long off, std::uint8_t value) {
    std::FILE* f = std::fopen(log_path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, off, off < 0 ? SEEK_END : SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&value, 1, 1, f), 1u);
    std::fclose(f);
  }

  void truncate_log_by(long bytes) {
    std::FILE* f = std::fopen(log_path().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    std::string cmd = "truncate -s " + std::to_string(size - bytes) + " " +
                      log_path();
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  static std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
    std::vector<std::uint8_t> out;
    for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
    return out;
  }

  std::string dir_;
};

TEST_F(StoreFixture, RoundtripAndReopenPersists) {
  {
    cache::CacheStore s(opts());
    EXPECT_TRUE(s.open_report().created);
    s.put(1, 2, bytes({10, 20, 30}));
    s.put(3, 4, bytes({40}));
    auto v = s.lookup(1, 2);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, bytes({10, 20, 30}));
    EXPECT_FALSE(s.lookup(1, 5).has_value());  // 128-bit key: b matters
    EXPECT_EQ(s.entries(), 2u);
  }
  cache::CacheStore s(opts());
  EXPECT_FALSE(s.open_report().created);
  EXPECT_EQ(s.open_report().records_loaded, 2);
  EXPECT_EQ(s.entries(), 2u);
  auto v = s.lookup(3, 4);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, bytes({40}));
}

TEST_F(StoreFixture, OpenCreatesMissingParentDirectories) {
  // A sweep's store path is <out_dir>/cache_<scenario>; neither component
  // has to exist yet (the regression: --out=DIR aborted the whole sweep).
  cache::StoreOptions o = opts();
  o.dir = dir_ + "/a/b/c";
  cache::CacheStore s(o);
  EXPECT_TRUE(s.open_report().created);
  s.put(1, 2, bytes({3}));
  EXPECT_TRUE(s.lookup(1, 2).has_value());
}

TEST_F(StoreFixture, OverwriteKeepsLatestAcrossReopen) {
  {
    cache::CacheStore s(opts());
    s.put(9, 9, bytes({1}));
    s.put(9, 9, bytes({2, 2}));
    auto v = s.lookup(9, 9);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, bytes({2, 2}));
  }
  cache::CacheStore s(opts());
  EXPECT_EQ(s.entries(), 1u);
  auto v = s.lookup(9, 9);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, bytes({2, 2}));
}

TEST_F(StoreFixture, TruncatedTailDropsOnlyThePartialRecord) {
  {
    cache::CacheStore s(opts());
    s.put(1, 1, bytes({1, 1, 1}));
    s.put(2, 2, bytes({2, 2, 2}));
  }
  truncate_log_by(2);  // crash mid-append of the second record
  cache::CacheStore s(opts());
  EXPECT_TRUE(s.open_report().truncated_tail);
  EXPECT_EQ(s.entries(), 1u);
  EXPECT_TRUE(s.lookup(1, 1).has_value());
  EXPECT_FALSE(s.lookup(2, 2).has_value());
  // The file was truncated back to the last good byte: a new put appends
  // cleanly and the store reopens with both entries.
  s.put(3, 3, bytes({3}));
  EXPECT_EQ(s.entries(), 2u);
}

TEST_F(StoreFixture, BitFlippedRecordIsSkippedNotServed) {
  {
    cache::CacheStore s(opts());
    s.put(1, 1, bytes({1, 1, 1}));
    s.put(2, 2, bytes({2, 2, 2}));
  }
  // Flip one byte inside the LAST record's value (3 value bytes at EOF).
  patch_log(-1, 0xff);
  cache::CacheStore s(opts());
  EXPECT_EQ(s.open_report().corrupt_records, 1);
  EXPECT_EQ(s.entries(), 1u);
  EXPECT_TRUE(s.lookup(1, 1).has_value());
  EXPECT_FALSE(s.lookup(2, 2).has_value());  // a miss, never a wrong hit
}

TEST_F(StoreFixture, StaleEpochDiscardsWholesale) {
  {
    cache::CacheStore s(opts(/*epoch=*/7));
    s.put(1, 1, bytes({1}));
  }
  cache::CacheStore s(opts(/*epoch=*/8));
  EXPECT_TRUE(s.open_report().stale_epoch);
  EXPECT_EQ(s.entries(), 0u);
  EXPECT_FALSE(s.lookup(1, 1).has_value());
  // The store restarts fresh under the new epoch and works normally.
  s.put(5, 5, bytes({5}));
  EXPECT_TRUE(s.lookup(5, 5).has_value());
}

TEST_F(StoreFixture, FormatVersionMismatchDiscardsWholesale) {
  {
    cache::CacheStore s(opts());
    s.put(1, 1, bytes({1}));
  }
  // Header layout: magic u32 | format u32 | epoch u64 (little-endian).
  patch_log(4, static_cast<std::uint8_t>(cache::kStoreFormatVersion + 1));
  cache::CacheStore s(opts());
  EXPECT_TRUE(s.open_report().version_mismatch);
  EXPECT_EQ(s.entries(), 0u);
}

TEST_F(StoreFixture, SecondConcurrentOpenThrowsLocked) {
  cache::CacheStore first(opts());
  try {
    cache::CacheStore second(opts());
    FAIL() << "second open must throw CacheError kLocked";
  } catch (const cache::CacheError& e) {
    EXPECT_EQ(e.kind(), cache::CacheErrorKind::kLocked);
  }
  // The lock releases with the holder: a later open succeeds (checked by
  // every other test reopening after scope exit).
}

TEST_F(StoreFixture, EntryCapEvictsLeastRecentlyUsed) {
  cache::StoreOptions o = opts();
  o.max_entries = 4;
  o.evict_to_fraction = 0.5;
  cache::CacheStore s(o);
  for (std::uint64_t k = 1; k <= 4; ++k) s.put(k, k, bytes({1, 2, 3}));
  // Touch key 1 so it is the most recently used.
  EXPECT_TRUE(s.lookup(1, 1).has_value());
  s.put(5, 5, bytes({1, 2, 3}));  // exceeds the cap: evict down to 2
  EXPECT_LE(s.entries(), 4u);
  EXPECT_GT(s.evictions(), 0);
  EXPECT_TRUE(s.lookup(1, 1).has_value()) << "LRU must keep the touched key";
  EXPECT_TRUE(s.lookup(5, 5).has_value()) << "the new entry always survives";
}

TEST_F(StoreFixture, ClearEmptiesAndPersists) {
  {
    cache::CacheStore s(opts());
    s.put(1, 1, bytes({1}));
    s.clear();
    EXPECT_EQ(s.entries(), 0u);
    EXPECT_FALSE(s.lookup(1, 1).has_value());
  }
  cache::CacheStore s(opts());
  EXPECT_EQ(s.entries(), 0u);
}

// Seeded mutation fuzz of a populated cache.log: byte flips, truncations,
// and duplicated or reordered records, some with a byte flip on top.
// Opening the mutated log either throws a typed CacheError or yields a store
// that serves each key as a miss or as a value once written for it (a
// reordered or duplicated record may bring back an older one), never a
// value nobody wrote; and the repaired store keeps working across a reopen.
TEST_F(StoreFixture, MutatedLogServesWrittenValuesOrMisses) {
  using Bytes = std::vector<std::uint8_t>;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Bytes>>
      written;
  {
    Rng rng(31);
    cache::CacheStore s(opts());
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t a = 1 + i % 9;
      const std::uint64_t b = 100 + i % 9;
      Bytes v(1 + rng.uniform(40));
      for (std::uint8_t& x : v) x = static_cast<std::uint8_t>(rng.uniform(256));
      written[{a, b}].push_back(v);
      s.put(a, b, std::move(v));
    }
  }
  auto read_log = [&] {
    std::ifstream in(log_path(), std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
  };
  const Bytes pristine = read_log();
  // Split into the header and whole records (magic | len | sum | payload).
  const Bytes header(pristine.begin(),
                     pristine.begin() + cache::kStoreHeaderSize);
  std::vector<Bytes> records;
  for (std::size_t off = cache::kStoreHeaderSize; off < pristine.size();) {
    std::uint32_t len = 0;
    for (int k = 3; k >= 0; --k) len = (len << 8) | pristine[off + 4 + k];
    const std::size_t end = off + cache::kRecordHeaderSize + len;
    records.emplace_back(pristine.begin() + off, pristine.begin() + end);
    off = end;
  }
  ASSERT_EQ(records.size(), 24u);

  constexpr int kPerKind = 500;
  int served = 0;
  for (int kind = 0; kind < 4; ++kind) {
    for (int iter = 0; iter < kPerKind; ++iter) {
      const std::string tag =
          "kind " + std::to_string(kind) + " iter " + std::to_string(iter);
      Rng rng(1000 * kind + iter);
      Bytes log;
      bool flip = kind == 0 || rng.chance(0.5);
      if (kind == 1) {
        log.assign(pristine.begin(),
                   pristine.begin() + rng.uniform(pristine.size()));
        flip = false;
      } else {
        std::vector<Bytes> recs = records;
        if (kind == 2) {  // duplicate a record at a random boundary
          const Bytes dup = recs[rng.uniform(recs.size())];
          recs.insert(recs.begin() + rng.uniform(recs.size() + 1), dup);
        } else if (kind == 3) {
          rng.shuffle(recs);
        }
        log = header;
        for (const Bytes& r : recs) log.insert(log.end(), r.begin(), r.end());
      }
      if (flip) {
        const int flips = 1 + static_cast<int>(rng.uniform(3));
        for (int f = 0; f < flips; ++f) {
          log[rng.uniform(log.size())] ^=
              static_cast<std::uint8_t>(1 + rng.uniform(255));
        }
      }
      {
        std::ofstream out(log_path(), std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(log.data()),
                  static_cast<std::streamsize>(log.size()));
      }
      try {
        {
          cache::CacheStore s(opts());
          for (const auto& [key, values] : written) {
            auto v = s.lookup(key.first, key.second);
            if (!v) continue;
            ++served;
            EXPECT_NE(std::find(values.begin(), values.end(), *v),
                      values.end())
                << tag << ": key " << key.first << " served a value never "
                << "written for it";
          }
          EXPECT_FALSE(s.lookup(1, 1).has_value()) << tag;
          EXPECT_FALSE(s.lookup(0, 100).has_value()) << tag;
          s.put(77, 77, bytes({7, 7}));
        }
        cache::CacheStore again(opts());
        EXPECT_EQ(again.lookup(77, 77), std::optional<Bytes>(bytes({7, 7})))
            << tag << ": the repaired log lost a new record";
      } catch (const cache::CacheError&) {
        // A typed refusal is an allowed outcome.
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The fuzz must reach the serving path, not only the discard paths.
  EXPECT_GT(served, 4 * kPerKind);
}

// ---------------------------------------------------------------------------
// Layer 2b: the memo codec and the backend adapter's collision guard.

WindowMemo sample_memo() {
  WindowMemo m;
  m.sig2 = 0x1234567890abcdefULL;
  m.outcome = WindowOutcome::kSolved;
  m.empty_build = false;
  m.obj_delta = -3.25;
  m.changed = {{7, Placement{120, 3, true}}, {9, Placement{-40, 0, false}}};
  return m;
}

TEST(MemoCodec, RoundtripIsExact) {
  WindowMemo m = sample_memo();
  std::vector<std::uint8_t> enc = cache::encode_memo(m);
  std::optional<WindowMemo> d = cache::decode_memo(enc.data(), enc.size());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sig2, m.sig2);
  EXPECT_EQ(d->outcome, m.outcome);
  EXPECT_EQ(d->empty_build, m.empty_build);
  EXPECT_EQ(d->obj_delta, m.obj_delta);  // bitwise: doubles roundtrip exactly
  ASSERT_EQ(d->changed.size(), m.changed.size());
  for (std::size_t i = 0; i < m.changed.size(); ++i) {
    EXPECT_EQ(d->changed[i].first, m.changed[i].first);
    EXPECT_EQ(d->changed[i].second, m.changed[i].second);
  }
  // recorded_gen is run-local and deliberately not persisted.
  EXPECT_EQ(d->recorded_gen, 0u);
}

TEST(MemoCodec, MalformedInputsDecodeToNullopt) {
  std::vector<std::uint8_t> enc = cache::encode_memo(sample_memo());
  // Every truncation point fails closed.
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(cache::decode_memo(enc.data(), len).has_value())
        << "len " << len;
  }
  // Trailing garbage is corruption, not padding.
  std::vector<std::uint8_t> longer = enc;
  longer.push_back(0);
  EXPECT_FALSE(cache::decode_memo(longer.data(), longer.size()).has_value());
  // An out-of-range outcome byte (e.g. a persisted kCachedRemote, which
  // commit() must have mapped away) rejects the whole memo.
  std::vector<std::uint8_t> bad_outcome = enc;
  bad_outcome[8] = 200;
  EXPECT_FALSE(
      cache::decode_memo(bad_outcome.data(), bad_outcome.size()).has_value());
  bad_outcome[8] =
      static_cast<std::uint8_t>(WindowOutcome::kCachedRemote);
  EXPECT_FALSE(
      cache::decode_memo(bad_outcome.data(), bad_outcome.size()).has_value());
}

TEST_F(StoreFixture, PersistentCacheRejectsCollisionGuardMismatch) {
  cache::CacheStore s(opts());
  cache::PersistentCache pc(&s);
  WindowMemo m = sample_memo();
  // A record stored under a key whose b-half disagrees with the memo's
  // embedded sig2 is torn/foreign: lookup must miss, never serve it.
  s.put(42, 0xdeadULL, cache::encode_memo(m));  // m.sig2 != 0xdead
  EXPECT_FALSE(pc.lookup(WindowSig{42, 0xdeadULL}).has_value());
  EXPECT_EQ(pc.hits(), 0);
  EXPECT_EQ(pc.misses(), 1);
  // Stored through the adapter under the matching key, it round-trips.
  WindowSig sig{42, m.sig2};
  pc.store(sig, m);
  std::optional<WindowMemo> got = pc.lookup(sig);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->changed.size(), m.changed.size());
  EXPECT_EQ(pc.hits(), 1);
  EXPECT_EQ(pc.stores(), 1);
}

TEST(IncrementalMemoCaps, EntryCapEvictsOldestFirst) {
  IncrementalState inc;
  inc.set_memo_limits(/*max_entries=*/4, /*max_bytes=*/1u << 20);
  for (std::uint64_t k = 1; k <= 8; ++k) {
    WindowMemo m;
    m.outcome = WindowOutcome::kSolved;
    inc.store(WindowSig{k, k}, std::move(m));
  }
  EXPECT_LE(inc.memo_entries(), 4u);
  EXPECT_GE(inc.memo_evictions(), 4L);
  EXPECT_EQ(inc.lookup(WindowSig{1, 1}), nullptr) << "oldest evicted";
  EXPECT_NE(inc.lookup(WindowSig{8, 8}), nullptr) << "newest kept";
}

// ---------------------------------------------------------------------------
// Layer 3: warm-rerun acceptance — bit-identical and MILP-free.

Design cache_design(std::uint64_t seed) {
  Rng rng(seed);
  DesignOptions dopt;
  dopt.scale = 0.25 + 0.25 * rng.uniform_real();
  dopt.utilization = 0.55 + 0.25 * rng.uniform_real();
  dopt.seed = rng.next() | 1;
  Design d = make_design("tiny", CellArch::kClosedM1, dopt);
  GlobalPlaceOptions gp;
  gp.seed = rng.next() | 1;
  global_place(d, gp);
  legalize(d);
  return d;
}

VM1OptOptions cache_opts() {
  VM1OptOptions o;
  o.sequence = {ParamSet{14, 2, 3, 1}};
  o.theta = 0;
  o.max_inner_iters = 2;
  o.threads = 2;
  o.params.alpha = 35;
  // Deterministic truncation only: the node limit binds, wall-clock never,
  // so a cache-served re-run replays exactly what a fresh run would solve.
  o.mip.max_nodes = 40;
  o.mip.time_limit_sec = 3600;
  o.mip.lp_options.time_limit_sec = 0;
  return o;
}

struct CacheRun {
  std::vector<Placement> placements;
  double objective = 0;
  double hpwl = 0;
  bool legal = false;
  VM1OptStats stats;
};

CacheRun run_with_cache(std::uint64_t seed, CacheBackend* cb) {
  Design d = cache_design(seed);
  VM1OptOptions o = cache_opts();
  o.cache = cb;
  VM1OptStats s = vm1opt(d, o);
  EXPECT_EQ(s.solved + s.fallback_rounding + s.fallback_greedy +
                s.rejected_audit + s.kept + s.faulted + s.skipped +
                s.cached_remote,
            s.windows)
      << "the eight outcome buckets must sum to windows (seed " << seed
      << ")";
  CacheRun r;
  r.placements = d.placements();
  r.objective = s.final.value;
  r.hpwl = s.final.hpwl;
  r.legal = is_legal(d);
  r.stats = s;
  return r;
}

void expect_identical(const CacheRun& warm, const CacheRun& cold,
                      std::uint64_t seed) {
  ASSERT_EQ(warm.placements.size(), cold.placements.size());
  for (std::size_t i = 0; i < warm.placements.size(); ++i) {
    ASSERT_EQ(warm.placements[i], cold.placements[i])
        << "seed " << seed << " instance " << i;
  }
  // Bitwise on purpose: a cache hit must replay the identical arithmetic
  // path, not merely land within a tolerance.
  EXPECT_EQ(warm.objective, cold.objective) << "seed " << seed;
  EXPECT_EQ(warm.hpwl, cold.hpwl) << "seed " << seed;
  EXPECT_TRUE(warm.legal) << "seed " << seed;
}

class CacheEquiv : public StoreFixture {};

TEST_F(CacheEquiv, WarmRerunIsBitIdenticalAndSkipsTheMilp) {
  for (std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{11}}) {
    cache::StoreOptions o = opts();
    o.dir = dir_ + "/s" + std::to_string(seed);
    o.epoch = cache::default_epoch();
    cache::CacheStore store(o);
    cache::PersistentCache pc(&store);
    cache::MemoryCache mc;

    for (CacheBackend* cb : {static_cast<CacheBackend*>(&pc),
                             static_cast<CacheBackend*>(&mc)}) {
      const std::string backend = cb == &pc ? " (store)" : " (memory)";
      CacheRun cold = run_with_cache(seed, cb);
      EXPECT_GT(cold.stats.cache_stores, 0) << "seed " << seed << backend;
      EXPECT_EQ(cold.stats.cache_hits, 0) << "seed " << seed << backend;

      CacheRun warm = run_with_cache(seed, cb);
      expect_identical(warm, cold, seed);
      EXPECT_GT(warm.stats.cache_hits, 0) << "seed " << seed << backend;
      EXPECT_GT(warm.stats.cached_remote, 0) << "seed " << seed << backend;
      // Acceptance: the warm rerun must skip >= 90% of the windows the
      // cold run solved with a MILP.
      long cold_milp = cold.stats.solved + cold.stats.fallback_rounding +
                       cold.stats.fallback_greedy;
      long warm_milp = warm.stats.solved + warm.stats.fallback_rounding +
                       warm.stats.fallback_greedy;
      EXPECT_LE(warm_milp * 10, cold_milp) << "seed " << seed << backend;
    }
  }
}

TEST_F(CacheEquiv, WarmRerunSurvivesStoreReopen) {
  cache::StoreOptions o = opts();
  o.epoch = cache::default_epoch();
  CacheRun cold;
  {
    cache::CacheStore store(o);
    cache::PersistentCache pc(&store);
    cold = run_with_cache(3, &pc);
  }
  cache::CacheStore store(o);  // fresh process, same directory
  cache::PersistentCache pc(&store);
  CacheRun warm = run_with_cache(3, &pc);
  expect_identical(warm, cold, 3);
  EXPECT_GT(warm.stats.cache_hits, 0);
}

class CacheEquivFaults : public StoreFixture {
 protected:
  void SetUp() override {
    StoreFixture::SetUp();
    fault::set_config(fault::parse_spec("rate=0.25,seed=11"));
  }
  void TearDown() override {
    fault::set_config(fault::Config{});
    StoreFixture::TearDown();
  }
};

TEST_F(CacheEquivFaults, WarmRerunIsBitIdenticalUnderTheFaultStorm) {
  // The fault config is part of the window signature, so cold-run
  // injected-fault outcomes are themselves deterministic no-ops and get
  // memoized (dist_opt memoizes kFaulted iff the fault was an injected
  // drill). The warm run therefore serves even faulted windows from the
  // store — what must hold is bit-identity of the resulting state, and
  // that the storm changed signatures enough that both runs agree drill
  // for drill.
  cache::StoreOptions o = opts();
  o.epoch = cache::default_epoch();
  cache::CacheStore store(o);
  cache::PersistentCache pc(&store);
  CacheRun cold = run_with_cache(7, &pc);
  EXPECT_GT(cold.stats.faulted, 0) << "the storm must actually fire";
  CacheRun warm = run_with_cache(7, &pc);
  expect_identical(warm, cold, 7);
  EXPECT_GT(warm.stats.cache_hits, 0);
}

// ---------------------------------------------------------------------------
// Layer 3b: the processes backend — a cache shared across runs on one
// fleet, and the fault storm.

CacheRun run_remote(std::uint64_t seed, dist::Coordinator* coord,
                    VM1OptOptions o = cache_opts()) {
  Design d = cache_design(seed);
  o.threads = 1;
  o.backend = DistBackend::kProcesses;
  o.coordinator = coord;
  VM1OptStats s = vm1opt(d, o);
  CacheRun r;
  r.placements = d.placements();
  r.objective = s.final.value;
  r.hpwl = s.final.hpwl;
  r.legal = is_legal(d);
  r.stats = s;
  return r;
}

TEST(RemoteCacheTier, WorkerMemoServesRepeatRunsAsCachedRemote) {
  // Two runs of one design on one fleet, sharing the in-memory backend as
  // vm1_serve's jobs do: the first solves on the workers, and the second
  // replays every window from the backend (kCachedRemote) without a single
  // request to the fleet.
  dist::CoordinatorOptions co;
  co.num_workers = 2;
  dist::Coordinator coord(co);
  cache::MemoryCache mc;
  VM1OptOptions o = cache_opts();
  o.cache = &mc;
  CacheRun first = run_remote(21, &coord, o);
  EXPECT_GT(first.stats.remote.replies, 0) << "the fleet solved nothing";
  EXPECT_EQ(first.stats.cached_remote, 0);
  CacheRun second = run_remote(21, &coord, o);
  expect_identical(second, first, 21);
  EXPECT_GT(second.stats.windows, 0);
  EXPECT_EQ(second.stats.cached_remote, second.stats.windows);
  EXPECT_EQ(second.stats.remote.requests, 0);
}

class RemoteCacheFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::set_config(fault::parse_spec("rate=0.25,seed=11"));
  }
  void TearDown() override { fault::set_config(fault::Config{}); }
};

TEST_F(RemoteCacheFaults, CoalescedDispatchSurvivesTheFaultStorm) {
  // The storm leaves nearly every window to the local fallback: its drills
  // are keyed on the window, so they fire again on the retry, and the
  // first batch quarantines both worker slots. What this pins is that the
  // degraded processes run stays bit-identical to the threads run.
  // Short solver limit: the node limit still binds on these windows, but
  // the limit sets a silent worker's deadline, keeping the storm fast.
  VM1OptOptions o = cache_opts();
  o.mip.time_limit_sec = 0.5;
  CacheRun threads;
  {
    Design d = cache_design(29);
    VM1OptStats s = vm1opt(d, o);
    threads.placements = d.placements();
    threads.objective = s.final.value;
    threads.hpwl = s.final.hpwl;
    threads.legal = is_legal(d);
    threads.stats = s;
  }
  dist::CoordinatorOptions co;
  co.num_workers = 2;
  co.request_timeout_sec = 0.75;
  co.quarantine_base_sec = 0.2;
  dist::Coordinator coord(co);
  CacheRun proc = run_remote(29, &coord, o);
  expect_identical(proc, threads, 29);
  // The fleet answers only a couple of windows, so these two checks rule
  // out a storm routed wholly around the workers; they are not fleet
  // coverage.
  EXPECT_GT(proc.stats.remote.replies, 0);
  EXPECT_LT(proc.stats.remote.local_fallbacks, proc.stats.windows);
}

}  // namespace
}  // namespace vm1
