/// \file metric_spec.h
/// Declarative metric-extraction specs for the scenario harness, in the
/// style of VTR's parse configs: each line names a metric, says where its
/// value comes from, and how much drift against the golden corpus is
/// tolerated.
///
/// Spec line format (';'-separated; lines starting with '#' are comments;
/// blank lines ignored):
///
///   <name>;<source>;<tolerance>
///
/// Sources:
///   flow:<field>     a field of the flow/optimizer snapshot (QoR +
///                    VM1OptStats — e.g. final_num_dm1, solved, windows)
///   counter:<name>   a telemetry counter from the obs registry snapshot
///                    (e.g. lp.solves, dist_opt.outcome.skipped)
///   report:<regex>   first capture group of a regex applied to the
///                    scenario's rendered report text (VPR style)
///
/// Tolerances (checked as value-vs-golden):
///   exact            bit-equal (after %.10g formatting)
///   abs:<T>          |v - g| <= T
///   rel:<F>          |v - g| <= F * max(|g|, 1)
///   le[:<F>]         v <= g * (1 + F) — metric may improve (drop) freely,
///                    may not regress upward past F (monotonic gate)
///   ge[:<F>]         v >= g * (1 - F) — mirror for maximized metrics
///   info             recorded in the trend JSON, never gated
#pragma once

#include <map>
#include <string>
#include <vector>

namespace vm1::scenario {

enum class MetricSource { kFlow, kCounter, kReport };
enum class TolKind { kExact, kAbs, kRel, kLe, kGe, kInfo };

struct Tolerance {
  TolKind kind = TolKind::kExact;
  double value = 0;

  std::string str() const;
};

struct MetricSpec {
  std::string name;
  MetricSource source = MetricSource::kFlow;
  std::string key;  ///< field name, counter name, or regex
  Tolerance tol;
};

/// Parses spec text. Returns false and sets *err on the first bad line.
bool parse_metric_specs(const std::string& text, std::vector<MetricSpec>* out,
                        std::string* err);

/// The built-in default spec: the golden-run metric set (flow fields,
/// integer-exact or monotonic) plus informational solver/router counters.
const std::string& default_metric_spec_text();
std::vector<MetricSpec> default_metric_specs();

/// One tolerance check. `detail` explains a failure in one line.
struct MetricCheck {
  bool pass = true;
  std::string detail;
};
MetricCheck check_tolerance(const Tolerance& tol, double value, double golden);

/// Extraction context: everything a spec line can point at.
struct ExtractionContext {
  const std::map<std::string, double>* flow = nullptr;
  const std::map<std::string, double>* counters = nullptr;
  const std::string* report = nullptr;
};

/// Extracts one metric. Returns false with *err set when the source has no
/// such field/counter or the regex does not match.
bool extract_metric(const MetricSpec& spec, const ExtractionContext& ctx,
                    double* value, std::string* err);

}  // namespace vm1::scenario
