#include <algorithm>
#include <chrono>

#include "bench.h"

namespace vm1bench {

namespace {

const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

int Tracer::open(const std::string& name, int parent, std::uint64_t job) {
  if (!on_) return -1;
  double t0 = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t0, t0, parent, job});
  self_s_ += now_s() - t0;
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  if (id < 0) return;
  double t0 = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = t0;
  self_s_ += now_s() - t0;
}

int Tracer::add(const std::string& name, double start, double end, int parent,
                std::uint64_t job) {
  if (!on_) return -1;
  double t0 = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, job});
  self_s_ += now_s() - t0;
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_s_;
}

Counts snapshot_counts() {
  vm1::obs::MetricsSnapshot snap = vm1::obs::snapshot_metrics();
  Counts c;
  for (const auto& [name, v] : snap.counters) c[name] = static_cast<double>(v);
  for (const auto& [name, h] : snap.histograms) {
    c[name + ".count"] = static_cast<double>(h.count);
    c[name + ".sum"] = h.sum;
    c[name + ".p50"] = h.p50;
    c[name + ".p95"] = h.p95;
  }
  return c;
}

Counts work_counters(const Counts& c) {
  Counts out;
  for (const auto& [name, v] : c) {
    // Zeros are dropped: a metric reads as absent until the code path that
    // registers it has run once, and absent and zero are the same count.
    // Heartbeats follow the clock, and the service's per-tenant split
    // follows how the tenants' jobs interleave; neither is work.
    if (v != 0 && !name.ends_with(".sum") && !name.ends_with(".p50") &&
        !name.ends_with(".p95") &&
        name.find("heartbeat") == std::string::npos &&
        !name.starts_with("svc.tenant.")) {
      out[name] = v;
    }
  }
  return out;
}

double get(const Counts& c, const std::string& key) {
  auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

void accumulate(Counts& into, const Counts& add) {
  for (const auto& [k, v] : add) into[k] += v;
}

void Qor::add(const Qor& o) {
  align_before += o.align_before;
  align_after += o.align_after;
  hpwl_before += o.hpwl_before;
  hpwl_after += o.hpwl_after;
  dm1_before += o.dm1_before;
  dm1_after += o.dm1_after;
  rwl_before += o.rwl_before;
  rwl_after += o.rwl_after;
  via12_before += o.via12_before;
  via12_after += o.via12_after;
  drv_before += o.drv_before;
  drv_after += o.drv_after;
  obj_before += o.obj_before;
  obj_after += o.obj_after;
}

void Run::fail(const std::string& what) { failures.push_back(what); }

void Run::count_op(std::size_t failures_before) {
  ++attempted;
  if (failures.size() > failures_before) ++failed;
}

namespace {

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

}  // namespace

double outcome_windows(const Counts& c) {
  double windows = 0;
  for (const char* bucket :
       {"solved", "fallback_rounding", "fallback_greedy", "rejected_audit",
        "kept", "faulted", "skipped", "cached_remote"}) {
    windows += get(c, std::string("dist_opt.outcome.") + bucket);
  }
  return windows;
}

void registry_layers(const Counts& c, double jobs,
                     std::map<std::string, double>& out) {
  auto per_job = [&](const std::string& key) { return ratio(get(c, key), jobs); };
  const double windows = outcome_windows(c);
  double fallbacks = get(c, "dist_opt.outcome.fallback_rounding") +
                     get(c, "dist_opt.outcome.fallback_greedy") +
                     get(c, "dist_opt.outcome.rejected_audit") +
                     get(c, "dist_opt.outcome.kept") +
                     get(c, "dist_opt.outcome.faulted");
  double nodes = get(c, "milp.nodes");

  out["route.expansions"] = per_job("route.maze_expansions");
  out["route.ripup_victims"] = per_job("route.ripup_victims");
  out["route.expansions_per_s"] =
      ratio(get(c, "route.maze_expansions"), get(c, "route.sec.sum"));

  out["lp.pivots"] = per_job("lp.pivots");
  out["lp.pivots_per_node"] = ratio(get(c, "lp.pivots"), nodes);
  out["lp.refactorize_s"] = per_job("lp.refactorize_sec.sum");
  out["milp.nodes"] = per_job("milp.nodes");
  out["milp.nodes_per_window"] =
      ratio(nodes, get(c, "dist_opt.outcome.solved"));
  out["milp.warm_frac"] = ratio(get(c, "lp.warm_solves"), get(c, "lp.solves"));

  out["core.windows"] = ratio(windows, jobs);
  out["core.window_busy_s"] = per_job("dist_opt.window_solve_sec.sum");
  out["core.audit_s"] = per_job("audit.sec.sum");
  out["core.fallback_frac"] = ratio(fallbacks, windows);
  out["core.solved_frac"] = ratio(get(c, "dist_opt.outcome.solved"), windows);

  out["dist.requests_per_window"] = ratio(get(c, "dist.requests"), windows);
  out["dist.bytes_per_window"] =
      ratio(get(c, "dist.bytes_sent") + get(c, "dist.bytes_received"), windows);
  out["dist.rpc_p50_s"] = get(c, "dist.rpc_sec.p50");
  out["dist.rpc_p95_s"] = get(c, "dist.rpc_sec.p95");
  out["dist.serialize_s"] = per_job("dist.serialize_sec.sum");
  out["dist.retries"] = per_job("dist.retries");
  out["dist.local_fallbacks"] = per_job("dist.local_fallbacks");

  out["cache.hit_frac"] = ratio(get(c, "cache.hits"),
                                get(c, "cache.hits") + get(c, "cache.misses"));
  out["cache.hit_s"] = per_job("cache.hit_sec.sum");
  out["cache.stores"] = per_job("cache.stores");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, std::size_t beyond) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (v.size() <= beyond) return v.back();
  return v[v.size() - 1 - beyond];
}

namespace {

/// Per span, the summed duration of its direct children. Children of one
/// parent never overlap in this driver (calls are sequential on one thread;
/// a job's phases tile the job), so this is the part of the parent they
/// cover.
std::vector<double> child_seconds(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  return child;
}

}  // namespace

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child = child_seconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] +=
        std::max(0.0, spans[i].end - spans[i].start - child[i]);
  }
  return out;
}

double min_root_coverage(const std::vector<Span>& spans,
                         const std::string& root_name) {
  std::vector<double> child = child_seconds(spans);
  double worst = 1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != root_name || s.end <= s.start) continue;
    worst = std::min(worst, child[i] / (s.end - s.start));
  }
  return worst;
}

}  // namespace vm1bench
