/// Shared helpers for the paper-reproduction bench binaries.
///
/// Environment knobs (all optional):
///   OPENVM1_SCALE    design-size multiplier (default from each bench)
///   OPENVM1_THREADS  worker threads for DistOpt (default 2)
///
/// Benches additionally emit machine-readable results as BENCH_<name>.json
/// (JsonWriter below) so runs can be diffed across commits for trajectory
/// tracking.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "core/dist_opt.h"
#include "core/flow.h"
#include "io/report.h"
#include "lp/kernels.h"
#include "obs/metrics.h"
#include "util/json_writer.h"
#include "util/stats.h"

// Generated at build time by bench/CMakeLists.txt (bench/provenance.cmake);
// fall back for ad-hoc builds.
#if __has_include("bench_provenance.h")
#include "bench_provenance.h"
#endif
#ifndef VM1_GIT_SHA
#define VM1_GIT_SHA "unknown"
#endif
#ifndef VM1_SOURCE_DIGEST
#define VM1_SOURCE_DIGEST "unknown"
#endif
#ifndef VM1_BUILD_TYPE
#define VM1_BUILD_TYPE "unknown"
#endif

namespace vm1::benchutil {

/// The streaming JSON emitter lives in src/util/json_writer.h so the
/// scenario harness (src/scenario) emits trend files in the identical
/// format; benches keep addressing it by its historical unqualified name.
using vm1::JsonWriter;

/// Emits the guardrail outcome counters (the WindowOutcome taxonomy of
/// core/dist_opt.h) summed over one or more DistOpt passes, as a nested
/// "window_outcomes" object — so bench JSON shows not just how fast the
/// windows solved but how they terminated (fallbacks, audit rejections,
/// faults, cancellations) across commits.
inline void write_window_outcomes(
    JsonWriter& jw, std::initializer_list<const DistOptStats*> passes) {
  int windows = 0, solved = 0, fallback_rounding = 0, fallback_greedy = 0;
  int rejected_audit = 0, kept = 0, faulted = 0, skipped = 0;
  int cached_remote = 0;
  long faults_injected = 0, signature_hits = 0, signature_misses = 0;
  long cache_hits = 0, cache_stores = 0;
  for (const DistOptStats* s : passes) {
    windows += s->windows;
    solved += s->solved;
    fallback_rounding += s->fallback_rounding;
    fallback_greedy += s->fallback_greedy;
    rejected_audit += s->rejected_audit;
    kept += s->kept;
    faulted += s->faulted;
    skipped += s->skipped;
    cached_remote += s->cached_remote;
    faults_injected += s->faults_injected;
    signature_hits += s->signature_hits;
    signature_misses += s->signature_misses;
    cache_hits += s->cache_hits;
    cache_stores += s->cache_stores;
  }
  jw.begin_object("window_outcomes");
  jw.field("windows", windows);
  jw.field("solved", solved);
  jw.field("fallback_rounding", fallback_rounding);
  jw.field("fallback_greedy", fallback_greedy);
  jw.field("rejected_audit", rejected_audit);
  jw.field("kept", kept);
  jw.field("faulted", faulted);
  jw.field("skipped", skipped);
  jw.field("cached_remote", cached_remote);
  jw.field("faults_injected", faults_injected);
  // Incremental-engine accounting: signature hits either replayed a window
  // (counted in `skipped`) or short-circuited an empty build.
  jw.field("signature_hits", signature_hits);
  jw.field("signature_misses", signature_misses);
  // Solve-cache accounting (src/cache): tier-2 replays and write-throughs.
  jw.field("cache_hits", cache_hits);
  jw.field("cache_stores", cache_stores);
  // Windows served without running a MILP, whatever the tier.
  jw.field("skip_rate",
           windows > 0
               ? static_cast<double>(skipped + cached_remote) / windows
               : 0.0);
  jw.end_object();
}

using vm1::iso_timestamp_utc;

/// Shared run-metadata block: every bench JSON carries the same provenance
/// fields so result files can be diffed across commits and machines.
inline void write_run_metadata(JsonWriter& jw) {
  jw.begin_object("run_metadata");
  jw.field("git_sha", VM1_GIT_SHA);
  jw.field("source_digest", VM1_SOURCE_DIGEST);
  jw.field("timestamp_utc", iso_timestamp_utc());
  jw.field("hardware_threads",
           static_cast<long>(std::thread::hardware_concurrency()));
  jw.field("build_type", VM1_BUILD_TYPE);
  jw.field("lp_kernels", lp::kernel_isa());
  jw.end_object();
}

/// Stdout twin of write_run_metadata for benches without a JSON file, so
/// every captured bench log is attributable too.
inline void print_run_header(const char* bench) {
  std::printf(
      "%s: git %s, source %s, %s, %u hw threads, build %s, LP kernels %s\n",
      bench, VM1_GIT_SHA, VM1_SOURCE_DIGEST, iso_timestamp_utc().c_str(),
      std::thread::hardware_concurrency(), VM1_BUILD_TYPE, lp::kernel_isa());
}

/// Dumps the global metric registry (counters, gauges, latency histograms
/// with p50/p95/p99) as a "telemetry" object. Called at the end of a bench
/// so e.g. the window-solve latency distribution lands next to the figures
/// it explains.
inline void write_telemetry(JsonWriter& jw) {
  obs::MetricsSnapshot snap = obs::snapshot_metrics();
  jw.begin_object("telemetry");
  jw.begin_object("counters");
  for (const auto& [name, v] : snap.counters) jw.field(name.c_str(), v);
  jw.end_object();
  jw.begin_object("gauges");
  for (const auto& [name, v] : snap.gauges) jw.field(name.c_str(), v);
  jw.end_object();
  jw.begin_object("histograms");
  for (const auto& [name, h] : snap.histograms) {
    jw.begin_object(name.c_str());
    jw.field("count", static_cast<long>(h.count));
    jw.field("sum", h.sum);
    jw.field("min", h.min);
    jw.field("max", h.max);
    jw.field("mean", h.mean());
    jw.field("p50", h.p50);
    jw.field("p95", h.p95);
    jw.field("p99", h.p99);
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
}

inline double env_scale(double fallback) {
  const char* s = std::getenv("OPENVM1_SCALE");
  return s ? std::atof(s) : fallback;
}

inline unsigned env_threads() {
  const char* s = std::getenv("OPENVM1_THREADS");
  return s ? static_cast<unsigned>(std::atoi(s)) : 2u;
}

/// The paper's preferred operating point: U = {(20, 4, 1)}, theta = 1%.
inline VM1OptOptions paper_vm1_options(double alpha_nm, CellArch arch) {
  VM1OptOptions v;
  v.params.alpha = paper_alpha(alpha_nm);
  v.params.epsilon = arch == CellArch::kOpenM1 ? 2.0 : 0.0;
  v.sequence = {ParamSet{20, 0, 4, 1}};
  v.threads = env_threads();
  v.max_inner_iters = 2;
  return v;
}

inline FlowOptions paper_flow(const std::string& design, CellArch arch,
                              double alpha_nm, double scale,
                              double util = 0.75) {
  FlowOptions f;
  f.design_name = design;
  f.arch = arch;
  f.design.scale = scale;
  f.design.utilization = util;
  f.vm1 = paper_vm1_options(alpha_nm, arch);
  return f;
}

/// Rebuilds the same design (same seeds) and restores a placement
/// snapshot — cheap per-configuration reset for sweep benches.
inline Design design_from_snapshot(const FlowOptions& base,
                                   const std::vector<Placement>& snap) {
  Design d = make_design(base.design_name, base.arch, base.design);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    d.set_placement(static_cast<int>(i), snap[i]);
  }
  return d;
}

}  // namespace vm1::benchutil
