// Solve-cache benchmark (src/cache): cold vs warm runs through a
// persistent store and through the in-memory backend, on threads and on a
// worker fleet.
//
// The cache contract is "bit-identical, just cheaper", so every row must
// reproduce the reference objective exactly; what varies is how many
// MILPs actually ran. Reported per configuration: wall-clock, MILP-solved
// windows, cache hits/stores, skip rate (windows served without a MILP),
// and frames-per-window for the processes rows. Results land in
// BENCH_cache.json.
//
// A second table reports the warm rerun's cost per store-served window at
// two design sizes (scale and 4 x scale). A store hit costs in proportion to
// its window, not to the design, so the figure should stay about flat as
// the design grows; it is reported, not gated.
//
// VM1_BENCH_QUICK: CI perf-smoke mode with one hard gate: a warm rerun
// through the store must skip >= 90% of the cold run's MILP solves while
// matching its objective bit for bit.
#include "bench_util.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "cache/solve_cache.h"
#include "cache/store.h"
#include "core/vm1opt.h"
#include "dist/coordinator.h"

using namespace vm1;
using namespace vm1::benchutil;

namespace {

/// Fresh store directory under /tmp, removed at process exit by the
/// destructor (benches must not leave state that warms their next run).
struct TempStoreDir {
  std::string path;
  TempStoreDir() {
    char tmpl[] = "/tmp/vm1_bench_cacheXXXXXX";
    if (mkdtemp(tmpl)) path = tmpl;
  }
  ~TempStoreDir() {
    if (!path.empty()) std::system(("rm -rf " + path).c_str());
  }
};

struct RunRow {
  double wall = 0;
  VM1OptStats stats;
};

long milp_solves(const VM1OptStats& s) {
  return s.solved + s.fallback_rounding + s.fallback_greedy;
}

double skip_rate(const VM1OptStats& s) {
  return s.windows > 0
             ? static_cast<double>(s.skipped + s.cached_remote) / s.windows
             : 0.0;
}

double frames_per_window(const VM1OptStats& s) {
  return s.windows > 0
             ? static_cast<double>(s.remote.frames_sent) / s.windows
             : 0.0;
}

RunRow run_once(const FlowOptions& base, const std::vector<Placement>& snap0,
                CacheBackend* cb, dist::Coordinator* coord) {
  Design d = design_from_snapshot(base, snap0);
  VM1OptOptions o = base.vm1;
  o.cache = cb;
  if (coord) {
    o.backend = DistBackend::kProcesses;
    o.coordinator = coord;
  }
  // Deterministic truncation only: wall-clock-limited solves are excluded
  // from memoization, so a time limit would silently empty the cache.
  o.mip.time_limit_sec = 3600;
  o.mip.lp_options.time_limit_sec = 0;
  Timer timer;
  RunRow r;
  r.stats = vm1opt(d, o);
  r.wall = timer.seconds();
  return r;
}

/// Warm-rerun cost per store-served window at one design scale.
struct ServedCost {
  double scale = 0;
  int instances = 0;
  long served = 0;       ///< windows the fastest rerun replayed
  long milp = 0;         ///< windows it solved
  double best_wall = 0;  ///< fastest of the warm reruns, in seconds

  double us_per_window() const {
    return served > 0 ? best_wall * 1e6 / static_cast<double>(served) : 0;
  }
};

/// A cold run on one thread fills a fresh store; three warm reruns then
/// replay every window from it, and the fastest one counts.
ServedCost warm_served_cost(double scale) {
  FlowOptions base = paper_flow("aes", CellArch::kClosedM1, 1200, scale);
  base.vm1.threads = 1;
  Design d0 = prepare_design(base, nullptr);
  std::vector<Placement> snap0 = d0.placements();
  TempStoreDir dir;
  cache::StoreOptions so;
  so.dir = dir.path;
  so.epoch = cache::default_epoch();
  cache::CacheStore store(so);
  cache::PersistentCache pc(&store);
  run_once(base, snap0, &pc, nullptr);

  ServedCost c;
  c.scale = scale;
  c.instances = d0.netlist().num_instances();
  for (int rep = 0; rep < 3; ++rep) {
    RunRow warm = run_once(base, snap0, &pc, nullptr);
    if (rep == 0 || warm.wall < c.best_wall) {
      c.best_wall = warm.wall;
      c.served = warm.stats.cache_hits + warm.stats.signature_hits;
      c.milp = milp_solves(warm.stats);
    }
  }
  return c;
}

int quick_smoke(double scale) {
  FlowOptions base = paper_flow("aes", CellArch::kClosedM1, 1200, scale);
  Design d0 = prepare_design(base, nullptr);
  std::vector<Placement> snap0 = d0.placements();
  int rc = 0;

  // The gate: a warm rerun skips >= 90% of the cold run's MILP solves,
  // bit-identically.
  TempStoreDir dir;
  cache::StoreOptions so;
  so.dir = dir.path;
  so.epoch = cache::default_epoch();
  cache::CacheStore store(so);
  cache::PersistentCache pc(&store);
  RunRow cold = run_once(base, snap0, &pc, nullptr);
  RunRow warm = run_once(base, snap0, &pc, nullptr);
  std::printf("quick: cold %.2fs (%ld MILP solves, %ld stores), warm %.2fs "
              "(%ld MILP solves, %ld hits, skip rate %.0f%%)\n",
              cold.wall, milp_solves(cold.stats), cold.stats.cache_stores,
              warm.wall, milp_solves(warm.stats), warm.stats.cache_hits,
              skip_rate(warm.stats) * 100.0);
  if (warm.stats.final.value != cold.stats.final.value ||
      warm.stats.final.hpwl != cold.stats.final.hpwl) {
    std::fprintf(stderr,
                 "FAIL: warm rerun diverged (objective %.17g vs %.17g)\n",
                 warm.stats.final.value, cold.stats.final.value);
    rc = 1;
  }
  if (milp_solves(warm.stats) * 10 > milp_solves(cold.stats)) {
    std::fprintf(stderr,
                 "FAIL: warm rerun solved %ld MILPs, > 10%% of the cold "
                 "run's %ld\n",
                 milp_solves(warm.stats), milp_solves(cold.stats));
    rc = 1;
  }
  if (warm.stats.cache_hits <= 0) {
    std::fprintf(stderr, "FAIL: warm rerun reported no persistent hits\n");
    rc = 1;
  }
  return rc;
}

}  // namespace

int main() {
  print_run_header("bench_cache");
  double scale = env_scale(0.25);
  const char* quick_env = std::getenv("VM1_BENCH_QUICK");
  if (quick_env && *quick_env && *quick_env != '0') {
    return quick_smoke(scale);
  }
  std::printf("Solve-cache benchmark (aes, ClosedM1, scale=%.2f)\n\n", scale);

  FlowOptions base = paper_flow("aes", CellArch::kClosedM1, 1200, scale);
  double place_s = 0;
  Design d0 = prepare_design(base, &place_s);
  std::vector<Placement> snap0 = d0.placements();

  TempStoreDir dir;
  cache::StoreOptions so;
  so.dir = dir.path;
  so.epoch = cache::default_epoch();
  cache::CacheStore store(so);
  cache::PersistentCache pc(&store);
  cache::MemoryCache mc;

  struct Config {
    const char* name;
    CacheBackend* cache;  // warms across rows; null = no cache
    int workers;          // 0 = threads backend
  };
  // Row order matters: the first row on a cache populates it for the later
  // ones, mirroring a cold CI run followed by warm reruns.
  const Config configs[] = {
      {"threads-cold", &pc, 0},
      {"threads-warm", &pc, 0},
      {"memory-cold", &mc, 0},
      {"memory-warm", &mc, 0},
      {"proc2", nullptr, 2},
      {"proc2-warm", &pc, 2},
  };

  Table t({"config", "wall_s", "objective", "milp", "cached", "hits",
           "stores", "skip%", "frames/win"});

  JsonWriter jw("BENCH_cache.json");
  jw.begin_object();
  write_run_metadata(jw);
  jw.field("bench", "cache");
  jw.field("design", base.design_name);
  jw.field("scale", scale);
  jw.begin_array("rows");

  double ref_objective = 0;
  int rc = 0;
  for (const Config& c : configs) {
    obs::reset_metrics();
    std::optional<dist::Coordinator> coord;
    if (c.workers > 0) {
      dist::CoordinatorOptions co;
      co.num_workers = c.workers;
      coord.emplace(co);
    }
    RunRow r = run_once(base, snap0, c.cache, coord ? &*coord : nullptr);
    if (ref_objective == 0) {
      ref_objective = r.stats.final.value;
    } else if (r.stats.remote.local_fallbacks == 0 &&
               r.stats.final.value != ref_objective) {
      std::fprintf(stderr,
                   "FAIL: %s objective %.17g != reference %.17g — the cache "
                   "contract is bit-identity\n",
                   c.name, r.stats.final.value, ref_objective);
      rc = 1;
    }
    t.add_row({c.name, fmt(r.wall, 2), fmt(r.stats.final.value, 1),
               fmt(milp_solves(r.stats), 0), fmt(r.stats.cached_remote, 0),
               fmt(r.stats.cache_hits, 0), fmt(r.stats.cache_stores, 0),
               fmt(skip_rate(r.stats) * 100.0, 0),
               c.workers > 0 ? fmt(frames_per_window(r.stats), 2)
                             : std::string("-")});

    jw.begin_object();
    jw.field("config", c.name);
    jw.field("workers", c.workers);
    jw.field("persistent_store", c.cache == &pc);
    jw.field("memory_cache", c.cache == &mc);
    jw.field("wall_s", r.wall);
    jw.field("objective", r.stats.final.value);
    jw.field("hpwl", r.stats.final.hpwl);
    jw.field("windows", r.stats.windows);
    jw.field("milp_solves", milp_solves(r.stats));
    jw.field("cached_remote", r.stats.cached_remote);
    jw.field("cache_hits", r.stats.cache_hits);
    jw.field("cache_stores", r.stats.cache_stores);
    jw.field("skipped", r.stats.skipped);
    jw.field("skip_rate", skip_rate(r.stats));
    jw.field("remote_frames_sent", r.stats.remote.frames_sent);
    jw.field("remote_frames_received", r.stats.remote.frames_received);
    jw.field("frames_per_window", frames_per_window(r.stats));
    jw.field("wire_bytes_sent", r.stats.remote.bytes_sent);
    jw.end_object();
  }
  jw.end_array();

  Table served({"scale", "instances", "served", "milp", "wall_ms",
                "us/served_window"});
  jw.begin_array("warm_served_cost");
  for (double s : {scale, 4 * scale}) {
    ServedCost c = warm_served_cost(s);
    served.add_row({fmt(c.scale, 2), fmt(c.instances, 0), fmt(c.served, 0),
                    fmt(c.milp, 0), fmt(c.best_wall * 1e3, 2),
                    fmt(c.us_per_window(), 1)});
    jw.begin_object();
    jw.field("scale", c.scale);
    jw.field("instances", c.instances);
    jw.field("served_windows", c.served);
    jw.field("milp_solves", c.milp);
    jw.field("wall_s", c.best_wall);
    jw.field("us_per_served_window", c.us_per_window());
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();

  std::printf("%s", t.render().c_str());
  std::printf("\nEvery row reproduces the reference objective bit for bit; "
              "rows differ only in\nhow many MILPs ran (cache tiers) and "
              "where the windows solved.\n");
  std::printf("store: %zu entries, %zu bytes, %ld evictions "
              "(BENCH_cache.json written)\n",
              store.entries(), store.bytes(), store.evictions());
  std::printf("\nWarm rerun per store-served window (one thread, fastest of "
              "3 reruns):\n%s",
              served.render().c_str());
  return rc;
}
