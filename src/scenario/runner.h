/// \file runner.h
/// Executes scenarios end-to-end, extracts their metrics through the
/// declarative specs (metric_spec.h), gates them against a checked-in
/// golden corpus, and emits one trend JSON per scenario.
///
/// Golden corpus layout: one `<golden_dir>/<scenario>.json` per scenario,
/// flat `"metric": value` pairs (the quickstart golden format). Regenerate
/// the whole corpus with `vm1_sweep --update-golden` or by running the
/// scenario tests with VM1_UPDATE_GOLDEN=1.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "scenario/metric_spec.h"
#include "scenario/scenario.h"

namespace vm1::scenario {

/// One executed scenario: every extracted metric plus the rendered report.
struct ScenarioResult {
  std::string name;
  std::map<std::string, double> metrics;      ///< by spec name
  std::map<std::string, double> flow;         ///< raw flow snapshot
  std::string report;                         ///< rendered report text
  double seconds = 0;
  /// Specs whose source could not be extracted (missing counter, regex
  /// mismatch) — always gating failures unless the run is update-mode.
  std::vector<std::string> extraction_errors;
};

/// One gate violation, formatted for operator consumption.
struct Violation {
  std::string scenario;
  std::string metric;
  std::string detail;

  std::string str() const { return scenario + "/" + metric + ": " + detail; }
};

struct RunnerOptions {
  std::string golden_dir;              ///< corpus root (required for gating)
  /// TREND_<name>.json destination, created when missing; a trend file
  /// that cannot be written is a violation naming it.
  std::string out_dir = ".";
  bool update_golden = false;          ///< rewrite corpus instead of gating
  bool write_trends = true;
  std::vector<MetricSpec> specs = default_metric_specs();
  /// Test/drill hook: mutates the flow options after Scenario::to_flow().
  /// The seeded-regression drill perturbs the flow here (e.g. forcing
  /// greedy fallbacks) and asserts the gate trips.
  std::function<void(FlowOptions&)> perturb;
  /// Progress sink (one line per scenario); null = silent.
  std::function<void(const std::string&)> log;
};

/// Builds the design, runs the flow, snapshots telemetry and extracts every
/// spec'd metric. Does not touch the golden corpus.
ScenarioResult run_scenario(const Scenario& s, const RunnerOptions& opts);

/// Flow snapshot for metric extraction (exposed for tests): the integer
/// golden metric set plus milp_nodes and wall-clock seconds.
std::map<std::string, double> flow_snapshot(const FlowResult& r);

/// Reads `<golden_dir>/<name>.json`. Empty map when absent/unreadable.
std::map<std::string, double> read_scenario_golden(const std::string& dir,
                                                   const std::string& name);

/// Writes `<golden_dir>/<name>.json` with every *gated* metric of `res`
/// (info metrics are trend-only and would churn the corpus). Returns false
/// when the file cannot be written.
bool write_scenario_golden(const std::string& dir,
                           const std::vector<MetricSpec>& specs,
                           const ScenarioResult& res);

/// Gates one result against its golden. Missing golden file => one
/// violation per gated metric ("no golden value"). Extraction errors gate
/// as violations too.
std::vector<Violation> gate_scenario(const ScenarioResult& res,
                                     const std::vector<MetricSpec>& specs,
                                     const std::map<std::string, double>& gold);

struct SweepSummary {
  int scenarios_run = 0;
  int goldens_written = 0;
  std::vector<Violation> violations;

  bool pass() const { return violations.empty(); }
};

/// Runs every scenario: execute, (update or gate), write trend JSON.
SweepSummary run_sweep(const std::vector<Scenario>& scenarios,
                       const RunnerOptions& opts);

}  // namespace vm1::scenario
