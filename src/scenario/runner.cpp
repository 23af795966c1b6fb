#include "scenario/runner.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>

#include "cache/solve_cache.h"
#include "cache/store.h"
#include "io/report.h"
#include "obs/metrics.h"
#include "util/json_writer.h"

namespace vm1::scenario {
namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// The runner's specs plus the scenario's extra lines. Extras whose name
/// collides with a shared spec are dropped (reported via `err`), so a
/// scenario cannot silently shadow a corpus-gated metric.
std::vector<MetricSpec> combined_specs(const Scenario& s,
                                       const RunnerOptions& opts,
                                       std::string* err) {
  std::vector<MetricSpec> specs = opts.specs;
  if (s.extra_spec_text.empty()) return specs;
  std::vector<MetricSpec> extra;
  std::string perr;
  if (!parse_metric_specs(s.extra_spec_text, &extra, &perr)) {
    if (err) *err = perr;
    return specs;
  }
  for (MetricSpec& e : extra) {
    bool dup = false;
    for (const MetricSpec& b : opts.specs) dup = dup || b.name == e.name;
    if (dup) {
      if (err) *err = "extra spec shadows shared metric " + e.name;
      continue;
    }
    specs.push_back(std::move(e));
  }
  return specs;
}

/// Renders the quickstart-style before/after report for one scenario. The
/// row labels are stable — the default spec's report regexes key on them.
std::string render_report(const Scenario& s, const FlowResult& r) {
  std::ostringstream os;
  os << "scenario " << s.name << " design=" << s.design
     << " arch=" << to_string(s.arch) << " util=" << s.utilization
     << " aspect=" << s.aspect << " cap=" << s.wire_capacity << "\n";
  Table t({"metric", "init", "final"});
  auto row = [&](const char* label, long long init, long long fin) {
    t.add_row({label, std::to_string(init), std::to_string(fin)});
  };
  row("#HPWL", r.init.hpwl, r.final.hpwl);
  row("#Align", r.init.objective.alignments, r.final.objective.alignments);
  row("#DM1", r.init.route.num_dm1, r.final.route.num_dm1);
  row("#Via12", r.init.route.via12, r.final.route.via12);
  row("#DRV", r.init.route.drv, r.final.route.drv);
  row("#RWL", r.init.route.rwl_dbu, r.final.route.rwl_dbu);
  os << t.render();
  os << "windows " << r.opt.windows << " solved " << r.opt.solved
     << " kept " << r.opt.kept << " skipped " << r.opt.skipped << "\n";
  return os.str();
}

}  // namespace

std::map<std::string, double> flow_snapshot(const FlowResult& r) {
  std::map<std::string, double> m;
  m["init_hpwl"] = double(r.init.hpwl);
  m["init_alignments"] = double(r.init.objective.alignments);
  m["init_num_dm1"] = double(r.init.route.num_dm1);
  m["init_via12"] = double(r.init.route.via12);
  m["init_drv"] = double(r.init.route.drv);
  m["init_rwl_dbu"] = double(r.init.route.rwl_dbu);
  m["final_hpwl"] = double(r.final.hpwl);
  m["final_alignments"] = double(r.final.objective.alignments);
  m["final_num_dm1"] = double(r.final.route.num_dm1);
  m["final_via12"] = double(r.final.route.via12);
  m["final_drv"] = double(r.final.route.drv);
  m["final_rwl_dbu"] = double(r.final.route.rwl_dbu);
  m["outer_iterations"] = double(r.opt.outer_iterations);
  m["windows"] = double(r.opt.windows);
  m["milp_nodes"] = double(r.opt.milp_nodes);
  m["solved"] = double(r.opt.solved);
  m["fallback_rounding"] = double(r.opt.fallback_rounding);
  m["fallback_greedy"] = double(r.opt.fallback_greedy);
  m["rejected_audit"] = double(r.opt.rejected_audit);
  m["kept"] = double(r.opt.kept);
  m["faulted"] = double(r.opt.faulted);
  m["skipped"] = double(r.opt.skipped);
  m["cached_remote"] = double(r.opt.cached_remote);
  m["cache_hits"] = double(r.opt.cache_hits);
  m["cache_stores"] = double(r.opt.cache_stores);
  m["place_seconds"] = r.place_seconds;
  return m;
}

ScenarioResult run_scenario(const Scenario& s, const RunnerOptions& opts) {
  ScenarioResult res;
  res.name = s.name;

  std::string spec_err;
  const std::vector<MetricSpec> specs = combined_specs(s, opts, &spec_err);
  if (!spec_err.empty()) {
    res.extraction_errors.push_back("extra_specs: " + spec_err);
  }

  FlowOptions flow = s.to_flow();
  if (opts.perturb) opts.perturb(flow);

  // Warm-cache drill: run the flow once into a cleared persistent store,
  // discard that run's telemetry, and measure the second (warm) run —
  // whose window solves should come out of the store.
  std::optional<cache::CacheStore> store;
  std::optional<cache::PersistentCache> pcache;
  if (s.warm_cache) {
    cache::StoreOptions so;
    so.dir = opts.out_dir + "/cache_" + s.name;
    so.epoch = cache::default_epoch();
    try {
      store.emplace(so);
    } catch (const cache::CacheError& e) {
      // An unusable store (locked by another sweep, unwritable out dir)
      // fails THIS scenario's gate, not the whole sweep process.
      res.extraction_errors.push_back(std::string("warm_cache store: ") +
                                      e.what());
      return res;
    }
    store->clear();  // the cold run must be genuinely cold
    pcache.emplace(&*store);
    flow.vm1.cache = &*pcache;
    obs::reset_metrics();
    run_flow(flow);
  }

  obs::reset_metrics();
  auto t0 = std::chrono::steady_clock::now();
  FlowResult r = run_flow(flow);
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  res.flow = flow_snapshot(r);
  res.flow["seconds"] = res.seconds;
  std::map<std::string, double> counters;
  for (const auto& [name, value] : obs::snapshot_metrics().counters) {
    counters[name] = double(value);
  }
  res.report = render_report(s, r);

  ExtractionContext ctx;
  ctx.flow = &res.flow;
  ctx.counters = &counters;
  ctx.report = &res.report;
  for (const MetricSpec& spec : specs) {
    double value = 0;
    std::string err;
    if (extract_metric(spec, ctx, &value, &err)) {
      res.metrics[spec.name] = value;
    } else {
      res.extraction_errors.push_back(spec.name + ": " + err);
    }
  }
  return res;
}

std::map<std::string, double> read_scenario_golden(const std::string& dir,
                                                   const std::string& name) {
  std::map<std::string, double> m;
  std::ifstream in(dir + "/" + name + ".json");
  if (!in.good()) return m;
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  std::regex entry("\"([a-z0-9_]+)\"\\s*:\\s*(-?[0-9][0-9.eE+-]*)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), entry);
       it != std::sregex_iterator(); ++it) {
    m[(*it)[1]] = std::strtod((*it)[2].str().c_str(), nullptr);
  }
  return m;
}

bool write_scenario_golden(const std::string& dir,
                           const std::vector<MetricSpec>& specs,
                           const ScenarioResult& res) {
  std::ofstream out(dir + "/" + res.name + ".json");
  if (!out.good()) return false;
  // Only gated metrics are part of the corpus: info metrics (timings,
  // solver work counters) churn on every regeneration without gating
  // anything, so recording them would only create diff noise.
  std::vector<std::pair<std::string, double>> rows;
  for (const MetricSpec& spec : specs) {
    if (spec.tol.kind == TolKind::kInfo) continue;
    auto it = res.metrics.find(spec.name);
    if (it != res.metrics.end()) rows.emplace_back(spec.name, it->second);
  }
  out << "{\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "  \"" << rows[i].first << "\": " << fmt(rows[i].second)
        << (i + 1 == rows.size() ? "\n" : ",\n");
  }
  out << "}\n";
  return out.good();
}

std::vector<Violation> gate_scenario(
    const ScenarioResult& res, const std::vector<MetricSpec>& specs,
    const std::map<std::string, double>& gold) {
  std::vector<Violation> v;
  for (const std::string& err : res.extraction_errors) {
    std::size_t colon = err.find(':');
    v.push_back({res.name, err.substr(0, colon),
                 "extraction failed:" + err.substr(colon + 1)});
  }
  for (const MetricSpec& spec : specs) {
    if (spec.tol.kind == TolKind::kInfo) continue;
    auto it = res.metrics.find(spec.name);
    if (it == res.metrics.end()) continue;  // already an extraction error
    auto g = gold.find(spec.name);
    if (g == gold.end()) {
      v.push_back({res.name, spec.name,
                   "no golden value (regenerate the corpus with "
                   "--update-golden)"});
      continue;
    }
    MetricCheck c = check_tolerance(spec.tol, it->second, g->second);
    if (!c.pass) v.push_back({res.name, spec.name, c.detail});
  }
  return v;
}

namespace {

/// False when the trend file cannot be opened for writing.
bool write_trend(const Scenario& s, const ScenarioResult& res,
                 const std::vector<MetricSpec>& specs,
                 const std::map<std::string, double>& gold,
                 const std::vector<Violation>& violations,
                 const std::string& path) {
  JsonWriter jw(path);
  jw.begin_object();
  jw.field("scenario", res.name);
  jw.field("timestamp_utc", iso_timestamp_utc());
  jw.begin_object("config");
  jw.field("design", s.design);
  jw.field("arch", to_string(s.arch));
  jw.field("utilization", s.utilization);
  jw.field("aspect", s.aspect);
  jw.field("scale", s.scale);
  jw.field("alpha_nm", s.alpha_nm);
  jw.field("wire_capacity", s.wire_capacity);
  jw.field("backend",
           s.backend == DistBackend::kProcesses ? "processes" : "threads");
  jw.field("threads", long(s.threads));
  jw.field("dist_workers", s.dist_workers);
  jw.end_object();
  jw.begin_array("metrics");
  for (const MetricSpec& spec : specs) {
    auto it = res.metrics.find(spec.name);
    if (it == res.metrics.end()) continue;
    jw.begin_object();
    jw.field("name", spec.name);
    jw.field("value", it->second);
    jw.field("tolerance", spec.tol.str());
    auto g = gold.find(spec.name);
    if (g != gold.end()) jw.field("golden", g->second);
    jw.end_object();
  }
  jw.end_array();
  jw.begin_array("violations");
  for (const Violation& v : violations) {
    jw.begin_object();
    jw.field("metric", v.metric);
    jw.field("detail", v.detail);
    jw.end_object();
  }
  jw.end_array();
  jw.field("pass", violations.empty());
  jw.end_object();
  return jw.ok();
}

}  // namespace

SweepSummary run_sweep(const std::vector<Scenario>& scenarios,
                       const RunnerOptions& opts) {
  SweepSummary sum;
  if (opts.write_trends) {
    // A directory that cannot be made shows up below as one violation per
    // trend file that cannot be written.
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
  }
  for (const Scenario& s : scenarios) {
    if (opts.log) opts.log("running " + s.name);
    ScenarioResult res = run_scenario(s, opts);
    ++sum.scenarios_run;

    const std::vector<MetricSpec> specs = combined_specs(s, opts, nullptr);
    std::vector<Violation> violations;
    std::map<std::string, double> gold;
    if (opts.update_golden) {
      if (write_scenario_golden(opts.golden_dir, specs, res)) {
        ++sum.goldens_written;
        if (opts.log) opts.log("  golden rewritten: " + res.name + ".json");
      } else {
        violations.push_back(
            {s.name, "golden",
             "cannot write " + opts.golden_dir + "/" + res.name + ".json"});
      }
      gold = read_scenario_golden(opts.golden_dir, res.name);
    } else {
      gold = read_scenario_golden(opts.golden_dir, res.name);
      violations = gate_scenario(res, specs, gold);
    }
    if (opts.write_trends) {
      const std::string path = opts.out_dir + "/TREND_" + res.name + ".json";
      if (!write_trend(s, res, specs, gold, violations, path)) {
        violations.push_back({s.name, "trend", "cannot write " + path});
      }
    }
    for (const Violation& v : violations) {
      if (opts.log) opts.log("  VIOLATION " + v.str());
      sum.violations.push_back(v);
    }
    if (opts.log && violations.empty()) {
      opts.log("  ok (" + fmt(res.seconds) + "s, " +
               std::to_string(res.metrics.size()) + " metrics)");
    }
  }
  return sum;
}

}  // namespace vm1::scenario
