/// \file main.cpp
/// vm1bench: runs one benchmark workload against the openvm1 library and
/// writes its report (and, traced, its spans) into --out.
///
///   vm1bench --workload flow_closedm1|svc_resubmit --seed N
///            --seconds S --trace 0|1 --out DIR [--git-sha SHA]
///            [--max-nodes K]
///
/// perfbench/run.py builds this binary and turns the report into the
/// benchmark's one-line result. Exit codes: 0 the run completed and every
/// output check passed, 1 an output check failed (the report says which),
/// 2 bad usage or a build the benchmark refuses to time.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "util/json_writer.h"

using namespace vm1bench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported by untraced runs.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},        {"job_p50_s", "s"},
    {"jobs_per_min", "jobs/min"}, {"hpwl_ratio", "ratio"},
    {"objective_ratio", "ratio"},
};

/// The per-layer metrics, reported by traced runs. Times and counts are
/// per job (a flow unit or a service job) unless the name says otherwise;
/// a layer a workload does not reach reads 0.
constexpr Metric kPerLayer[] = {
    {"route.s", "s"},
    {"route.expansions", "count"},
    {"route.ripup_victims", "count"},
    {"route.expansions_per_s", "1/s"},
    {"timing.s", "s"},
    {"io.read_s", "s"},
    {"io.write_s", "s"},
    {"io.bytes", "bytes"},
    {"lp.pivots", "count"},
    {"lp.pivots_per_node", "ratio"},
    {"lp.refactorize_s", "s"},
    {"milp.nodes", "count"},
    {"milp.nodes_per_window", "ratio"},
    {"milp.warm_frac", "ratio"},
    {"core.vm1opt_s", "s"},
    {"core.windows", "count"},
    {"core.window_busy_s", "s"},
    {"core.pool_util", "ratio"},
    {"core.audit_s", "s"},
    {"core.fallback_frac", "ratio"},
    {"core.solved_frac", "ratio"},
    {"dist.requests_per_window", "ratio"},
    {"dist.bytes_per_window", "bytes"},
    {"dist.rpc_p50_s", "s"},
    {"dist.rpc_p95_s", "s"},
    {"dist.serialize_s", "s"},
    {"dist.retries", "count"},
    {"dist.local_fallbacks", "count"},
    {"cache.hit_frac", "ratio"},
    {"cache.hit_s", "s"},
    {"cache.stores", "count"},
    {"cache.bytes", "bytes"},
    {"svc.submit_rtt_s", "s"},
    {"svc.queue_wait_s", "s"},
    {"svc.run_s", "s"},
    {"svc.result_rtt_s", "s"},
    {"svc.submit_bytes", "bytes"},
    {"svc.polls_per_job", "count"},
    {"design.make_s", "s"},
    {"place.global_s", "s"},
    {"place.legalize_s", "s"},
    {"place.detailed_s", "s"},
    {"job.tail_s", "s"},
    {"mem.peak_rss_mb", "MB"},
    {"host.steal_frac", "ratio"},
    {"qor.align_gain", "ratio"},
    {"qor.dm1_gain", "ratio"},
    {"qor.rwl_delta_pct", "%"},
    {"qor.via12_delta_pct", "%"},
    {"qor.drv_delta_pct", "%"},
    {"trace.job_p50_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage_min", "ratio"},
};

constexpr const char* kUsage =
    "usage: vm1bench --workload flow_closedm1|svc_resubmit\n"
    "                --seed N --seconds S --trace 0|1 --out DIR\n"
    "                [--git-sha SHA] [--max-nodes K]\n";

/// Refuses builds whose timings mean nothing: unoptimized or sanitized.
std::string refused_build() {
#if !defined(__OPTIMIZE__)
  return "the benchmark driver was compiled without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark driver was compiled with a sanitizer";
#else
  std::string type = VM1BENCH_BUILD_TYPE;
  std::string flags = VM1BENCH_LIB_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not Release or RelWithDebInfo";
  }
  if (flags.find("-fsanitize") != std::string::npos) {
    return "the library was compiled with a sanitizer (" + flags + ")";
  }
  if (flags.find("-O0") != std::string::npos) {
    return "the library was compiled without optimization (" + flags + ")";
  }
  return "";
#endif
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

/// Steal and total jiffies of all CPUs (/proc/stat): how much of the
/// machine a hypervisor gave to other guests while the run measured.
std::pair<double, double> cpu_steal_total() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return {0, 0};
  double v[8] = {};
  int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                      &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

double ratio(double a, double b) { return b != 0 ? a / b : 0; }
double delta_pct(double before, double after) {
  return before != 0 ? 100.0 * (after - before) / before : 0;
}

void write_metrics(vm1::JsonWriter& jw, const char* key,
                   const std::map<std::string, double>& values) {
  jw.begin_object(key);
  for (const auto& [name, v] : values) jw.field(name.c_str(), v);
  jw.end_object();
}

void write_trace(const std::string& path, const std::vector<Span>& spans) {
  vm1::JsonWriter jw(path);
  jw.begin_object();
  jw.begin_array("traceEvents");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    jw.begin_object();
    jw.field("name", s.name);
    jw.field("ph", "X");
    jw.field("pid", 1);
    jw.field("tid", static_cast<long>(s.job));
    jw.field("ts", s.start * 1e6);
    jw.field("dur", (s.end - s.start) * 1e6);
    jw.begin_object("args");
    jw.field("id", static_cast<long>(i));
    jw.field("parent", s.parent);
    jw.field("job", static_cast<long>(s.job));
    jw.end_object();
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (flag == "--out") {
      args.out_dir = v;
    } else if (flag == "--git-sha") {
      git_sha = v;
    } else if (flag == "--max-nodes") {
      args.max_nodes = std::atoi(v);
    } else {
      std::fprintf(stderr, "vm1bench: unknown flag '%s'\n%s", argv[i], kUsage);
      return 2;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.out_dir.empty() ||
      args.seconds <= 0 || !have_trace) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (std::string why = refused_build(); !why.empty()) {
    std::fprintf(stderr, "vm1bench: refusing to time this build: %s\n",
                 why.c_str());
    return 2;
  }
  Run (*workload)(const Args&, Tracer&) = nullptr;
  if (args.workload == "flow_closedm1") workload = run_flow_closedm1;
  if (args.workload == "svc_resubmit") workload = run_svc_resubmit;
  if (!workload) {
    std::fprintf(stderr, "vm1bench: unknown workload '%s'\n%s",
                 args.workload.c_str(), kUsage);
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  Tracer tracer(args.trace);
  const auto [steal0, total0] = cpu_steal_total();
  Run run = workload(args, tracer);
  const auto [steal1, total1] = cpu_steal_total();
  const Qor& q = run.qor;

  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(run.setup_s);
  e2e["job_p50_s"] = median(run.latency_s);
  e2e["jobs_per_min"] =
      ratio(60.0 * static_cast<double>(run.window_jobs), run.window_s);
  e2e["hpwl_ratio"] = ratio(q.hpwl_after, q.hpwl_before);
  e2e["objective_ratio"] = ratio(q.obj_after, q.obj_before);

  std::map<std::string, double> layer = run.layer;
  std::vector<Span> spans = tracer.spans();
  std::map<std::string, double> self = self_times(spans);
  std::map<std::string, double> calls;
  for (const Span& s : spans) calls[s.name] += 1;
  double jobs = std::max<double>(1.0, static_cast<double>(run.latency_s.size()));
  for (const auto& [span, metric] :
       {std::pair{"route", "route.s"}, std::pair{"timing", "timing.s"},
        std::pair{"io.read", "io.read_s"}, std::pair{"io.write", "io.write_s"},
        std::pair{"core.vm1opt", "core.vm1opt_s"}}) {
    if (self.count(span)) layer[metric] = self[span] / jobs;
  }
  // Set-up layers: mean self time per call (one call per design built).
  for (const auto& [span, metric] :
       {std::pair{"design.make", "design.make_s"},
        std::pair{"place.global", "place.global_s"},
        std::pair{"place.legalize", "place.legalize_s"},
        std::pair{"place.detailed", "place.detailed_s"}}) {
    if (calls[span] > 0) layer[metric] = self[span] / calls[span];
  }
  layer["job.tail_s"] = tail(run.latency_s);
  layer["mem.peak_rss_mb"] = peak_rss_mb();
  layer["host.steal_frac"] = ratio(steal1 - steal0, total1 - total0);
  layer["qor.align_gain"] = ratio(q.align_after, q.align_before);
  layer["qor.dm1_gain"] = ratio(q.dm1_after, q.dm1_before);
  layer["qor.rwl_delta_pct"] = delta_pct(q.rwl_before, q.rwl_after);
  layer["qor.via12_delta_pct"] = delta_pct(q.via12_before, q.via12_after);
  layer["qor.drv_delta_pct"] = delta_pct(q.drv_before, q.drv_after);
  layer["trace.job_p50_s"] = e2e["job_p50_s"];
  layer["trace.overhead_frac"] = ratio(tracer.self_seconds(), run.window_s);
  layer["trace.coverage_min"] =
      std::min(min_root_coverage(spans, "flow.unit"),
               min_root_coverage(spans, "svc.job"));
  if (args.trace) {
    const std::size_t before = run.failures.size();
    if (layer["trace.coverage_min"] < 0.95) {
      run.fail("per-layer self times cover less than 95% of a traced job");
    }
    run.count_op(before);
  }

  std::map<std::string, double> end_to_end, per_layer;
  for (const Metric& m : kEndToEnd) end_to_end[m.name] = e2e[m.name];
  for (const Metric& m : kPerLayer) per_layer[m.name] = layer[m.name];

  {
    vm1::JsonWriter jw(args.out_dir + "/report.json");
    jw.begin_object();
    jw.begin_object("provenance");
    jw.field("git_sha", git_sha);
    jw.field("nproc", static_cast<long>(std::thread::hardware_concurrency()));
    jw.field("build_type", VM1BENCH_BUILD_TYPE);
    jw.field("compile_flags", VM1BENCH_LIB_FLAGS);
    jw.field("compiler", VM1BENCH_COMPILER);
    jw.field("timestamp_utc", vm1::iso_timestamp_utc());
    jw.end_object();
    jw.field("workload", args.workload);
    jw.field("seed", static_cast<long>(args.seed));
    jw.field("seconds", args.seconds);
    jw.field("trace", args.trace);
    jw.field("max_nodes", args.max_nodes);
    jw.field("attempted", run.attempted);
    jw.field("failed", run.failed);
    jw.begin_array("failures");
    for (const std::string& f : run.failures) jw.field(nullptr, f);
    jw.end_array();
    jw.begin_object("units");
    for (const Metric& m : kEndToEnd) jw.field(m.name, m.unit);
    for (const Metric& m : kPerLayer) jw.field(m.name, m.unit);
    jw.end_object();
    write_metrics(jw, "end_to_end", end_to_end);
    write_metrics(jw, "per_layer", per_layer);
    write_metrics(jw, "work", run.work);
    jw.begin_array("latency_s");
    for (double v : run.latency_s) jw.field(nullptr, v);
    jw.end_array();
    jw.begin_array("setup_s");
    for (double v : run.setup_s) jw.field(nullptr, v);
    jw.end_array();
    jw.field("window_s", run.window_s);
    jw.end_object();
  }
  if (args.trace) write_trace(args.out_dir + "/trace.json", spans);
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "vm1bench: check failed: %s\n", f.c_str());
  }
  return run.failures.empty() ? 0 : 1;
}
