/// Scenario harness suite: declarative metric-spec parsing, tolerance
/// semantics, metric extraction from all three sources, golden-corpus
/// roundtrip, the checked-in corpus gate, and the seeded-regression drill
/// (a deliberately perturbed flow must trip the gate and name the metric).
///
/// Regenerate the per-scenario corpus after an intended change with:
///   VM1_UPDATE_GOLDEN=1 ./build/tests/openvm1_scenario_tests
/// or `./build/apps/vm1_sweep --quick --update-golden` (identical output).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "scenario/runner.h"

#ifndef VM1_GOLDEN_DIR
#define VM1_GOLDEN_DIR "tests/golden"
#endif

namespace vm1::scenario {
namespace {

std::string scenario_golden_dir() {
  return std::string(VM1_GOLDEN_DIR) + "/scenarios";
}

// ---------------------------------------------------------------------- spec

TEST(MetricSpec, ParsesDefaultSpec) {
  std::vector<MetricSpec> specs;
  std::string err;
  ASSERT_TRUE(parse_metric_specs(default_metric_spec_text(), &specs, &err))
      << err;
  EXPECT_GT(specs.size(), 20u);
  // All three source kinds are exercised by the default spec.
  bool flow = false, counter = false, report = false;
  for (const MetricSpec& s : specs) {
    flow |= s.source == MetricSource::kFlow;
    counter |= s.source == MetricSource::kCounter;
    report |= s.source == MetricSource::kReport;
  }
  EXPECT_TRUE(flow && counter && report);
}

TEST(MetricSpec, ParsesAllToleranceKinds) {
  std::vector<MetricSpec> specs;
  std::string err;
  ASSERT_TRUE(parse_metric_specs("a;flow:x;exact\n"
                                 "b;flow:x;abs:2\n"
                                 "c;flow:x;rel:0.05\n"
                                 "d;flow:x;le\n"
                                 "e;flow:x;ge:0.1\n"
                                 "f;flow:x;info\n",
                                 &specs, &err))
      << err;
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].tol.kind, TolKind::kExact);
  EXPECT_EQ(specs[1].tol.kind, TolKind::kAbs);
  EXPECT_DOUBLE_EQ(specs[1].tol.value, 2);
  EXPECT_EQ(specs[2].tol.kind, TolKind::kRel);
  EXPECT_EQ(specs[3].tol.kind, TolKind::kLe);
  EXPECT_EQ(specs[4].tol.kind, TolKind::kGe);
  EXPECT_DOUBLE_EQ(specs[4].tol.value, 0.1);
  EXPECT_EQ(specs[5].tol.kind, TolKind::kInfo);
}

TEST(MetricSpec, RejectsMalformedLines) {
  std::vector<MetricSpec> specs;
  std::string err;
  // Missing fields.
  EXPECT_FALSE(parse_metric_specs("just_a_name\n", &specs, &err));
  EXPECT_NE(err.find("line 1"), std::string::npos);
  // Unknown source kind.
  EXPECT_FALSE(parse_metric_specs("m;bogus:x;exact\n", &specs, &err));
  EXPECT_NE(err.find("unknown source"), std::string::npos);
  // Unknown tolerance.
  EXPECT_FALSE(parse_metric_specs("m;flow:x;never\n", &specs, &err));
  // abs without a value.
  EXPECT_FALSE(parse_metric_specs("m;flow:x;abs\n", &specs, &err));
  // Report regex without a capture group.
  EXPECT_FALSE(parse_metric_specs("m;report:DRV [0-9]+;exact\n", &specs,
                                  &err));
  EXPECT_NE(err.find("capture"), std::string::npos);
  // Invalid regex.
  EXPECT_FALSE(parse_metric_specs("m;report:([0-9]+;exact\n", &specs, &err));
  // Duplicate metric name.
  EXPECT_FALSE(parse_metric_specs("m;flow:x;exact\nm;flow:y;exact\n", &specs,
                                  &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(MetricSpec, HashCommentsAndBlanksIgnoredButNotInRegex) {
  std::vector<MetricSpec> specs;
  std::string err;
  ASSERT_TRUE(parse_metric_specs("# a comment\n\n"
                                 "drv;report:#DRV +([0-9]+);exact\n",
                                 &specs, &err))
      << err;
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].key, "#DRV +([0-9]+)");  // '#' kept inside the line
}

// ----------------------------------------------------------------- tolerance

TEST(MetricSpec, ToleranceSemantics) {
  EXPECT_TRUE(check_tolerance({TolKind::kExact, 0}, 5, 5).pass);
  EXPECT_FALSE(check_tolerance({TolKind::kExact, 0}, 5, 6).pass);
  EXPECT_TRUE(check_tolerance({TolKind::kAbs, 2}, 7, 5).pass);
  EXPECT_FALSE(check_tolerance({TolKind::kAbs, 2}, 8, 5).pass);
  EXPECT_TRUE(check_tolerance({TolKind::kRel, 0.1}, 109, 100).pass);
  EXPECT_FALSE(check_tolerance({TolKind::kRel, 0.1}, 111, 100).pass);
  // le: may improve (drop) freely, may not regress upward.
  EXPECT_TRUE(check_tolerance({TolKind::kLe, 0}, 0, 10).pass);
  EXPECT_FALSE(check_tolerance({TolKind::kLe, 0}, 11, 10).pass);
  EXPECT_TRUE(check_tolerance({TolKind::kLe, 0.2}, 11, 10).pass);
  // ge: the mirror for maximized metrics.
  EXPECT_TRUE(check_tolerance({TolKind::kGe, 0}, 99, 10).pass);
  EXPECT_FALSE(check_tolerance({TolKind::kGe, 0}, 9, 10).pass);
  // info never gates.
  EXPECT_TRUE(check_tolerance({TolKind::kInfo, 0}, 1e9, 0).pass);
  // A failed check names both values.
  MetricCheck c = check_tolerance({TolKind::kExact, 0}, 5, 6);
  EXPECT_NE(c.detail.find("5"), std::string::npos);
  EXPECT_NE(c.detail.find("6"), std::string::npos);
}

// ---------------------------------------------------------------- extraction

TEST(MetricSpec, ExtractsFromAllSources) {
  std::map<std::string, double> flow{{"final_drv", 3}};
  std::map<std::string, double> counters{{"lp.solves", 42}};
  std::string report = "  #DRV   7   3\n";
  ExtractionContext ctx{&flow, &counters, &report};

  std::vector<MetricSpec> specs;
  std::string err;
  ASSERT_TRUE(parse_metric_specs("a;flow:final_drv;exact\n"
                                 "b;counter:lp.solves;info\n"
                                 "c;report:#DRV +[0-9]+ +([0-9]+);exact\n",
                                 &specs, &err))
      << err;
  double v = 0;
  ASSERT_TRUE(extract_metric(specs[0], ctx, &v, &err)) << err;
  EXPECT_DOUBLE_EQ(v, 3);
  ASSERT_TRUE(extract_metric(specs[1], ctx, &v, &err)) << err;
  EXPECT_DOUBLE_EQ(v, 42);
  ASSERT_TRUE(extract_metric(specs[2], ctx, &v, &err)) << err;
  EXPECT_DOUBLE_EQ(v, 3);  // the capture group, not the first number

  // Failures are reported, not silently zero.
  ASSERT_TRUE(parse_metric_specs("m;flow:nope;exact\n", &specs, &err));
  EXPECT_FALSE(extract_metric(specs[0], ctx, &v, &err));
  EXPECT_NE(err.find("nope"), std::string::npos);
  ASSERT_TRUE(parse_metric_specs("m;counter:nope;info\n", &specs, &err));
  EXPECT_FALSE(extract_metric(specs[0], ctx, &v, &err));
  ASSERT_TRUE(parse_metric_specs("m;report:NOMATCH([0-9]+);exact\n", &specs,
                                 &err));
  EXPECT_FALSE(extract_metric(specs[0], ctx, &v, &err));
}

// -------------------------------------------------------------------- golden

TEST(ScenarioGolden, WriteReadRoundtrip) {
  ScenarioResult res;
  res.name = "roundtrip_probe";
  res.metrics = {{"final_hpwl", 7272}, {"final_drv", 0}, {"seconds", 1.5}};
  std::vector<MetricSpec> specs;
  std::string err;
  ASSERT_TRUE(parse_metric_specs("final_hpwl;flow:final_hpwl;exact\n"
                                 "final_drv;flow:final_drv;le\n"
                                 "seconds;flow:seconds;info\n",
                                 &specs, &err));
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(write_scenario_golden(dir, specs, res));
  std::map<std::string, double> gold = read_scenario_golden(dir, res.name);
  ASSERT_EQ(gold.size(), 2u);  // info metrics are not part of the corpus
  EXPECT_DOUBLE_EQ(gold["final_hpwl"], 7272);
  EXPECT_DOUBLE_EQ(gold["final_drv"], 0);
  EXPECT_EQ(gold.count("seconds"), 0u);
}

TEST(ScenarioGolden, MissingGoldenGatesEveryMetric) {
  ScenarioResult res;
  res.name = "no_such_golden";
  res.metrics = {{"final_hpwl", 1}};
  std::vector<MetricSpec> specs;
  std::string err;
  ASSERT_TRUE(
      parse_metric_specs("final_hpwl;flow:final_hpwl;exact\n", &specs, &err));
  auto v = gate_scenario(res, specs, {});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].metric, "final_hpwl");
  EXPECT_NE(v[0].detail.find("no golden"), std::string::npos);
  EXPECT_NE(v[0].str().find("no_such_golden/final_hpwl"), std::string::npos);
}

// --------------------------------------------------------------------- sweep

TEST(SweepMatrix, QuickMatrixCoversTheRequiredAxes) {
  std::vector<Scenario> m = sweep_matrix(/*quick=*/true);
  std::set<std::string> names;
  std::set<CellArch> archs;
  std::map<CellArch, std::set<int>> utils;
  bool aspect = false, capacity = false, processes = false;
  for (const Scenario& s : m) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    archs.insert(s.arch);
    utils[s.arch].insert(int(s.utilization * 100 + 0.5));
    aspect |= s.aspect != 1.0;
    capacity |= s.wire_capacity != 1;
    processes |= s.backend == DistBackend::kProcesses;
  }
  EXPECT_EQ(archs.size(), 3u);
  for (const auto& [arch, u] : utils) {
    EXPECT_GE(u.size(), 4u) << to_string(arch);
  }
  EXPECT_TRUE(aspect && capacity && processes);
  // The full matrix is a strict superset.
  EXPECT_GT(sweep_matrix(false).size(), m.size());
}

TEST(SweepMatrix, FilterSelectsBySubstring) {
  std::vector<Scenario> m = sweep_matrix(true);
  EXPECT_EQ(filter_scenarios(m, "").size(), m.size());
  std::vector<Scenario> only = filter_scenarios(m, "openm1");
  ASSERT_FALSE(only.empty());
  for (const Scenario& s : only) {
    EXPECT_NE(s.name.find("openm1"), std::string::npos);
  }
  EXPECT_TRUE(filter_scenarios(m, "zzz_no_match").empty());
}

// The end-to-end gate against the checked-in corpus, plus the
// seeded-regression drill. One fast scenario keeps this cheap enough for
// tier1; the full quick matrix runs under `ctest -L scenario` via
// openvm1_scenario_tests (VM1_SCENARIO_FULL).
Scenario probe_scenario() {
  for (const Scenario& s : sweep_matrix(true)) {
    if (s.name == "closedm1_u55") return s;
  }
  ADD_FAILURE() << "closedm1_u55 missing from the quick matrix";
  return {};
}

TEST(ScenarioRun, GatesCleanAgainstCheckedInCorpus) {
  RunnerOptions opts;
  opts.golden_dir = scenario_golden_dir();
  opts.out_dir = ::testing::TempDir();
  if (std::getenv("VM1_UPDATE_GOLDEN")) opts.update_golden = true;

  SweepSummary sum = run_sweep({probe_scenario()}, opts);
  EXPECT_EQ(sum.scenarios_run, 1);
  if (opts.update_golden) {
    EXPECT_EQ(sum.goldens_written, 1);
  }
  for (const Violation& v : sum.violations) {
    ADD_FAILURE() << v.str();
  }
  // The trend JSON exists and records the scenario.
  std::ifstream trend(opts.out_dir + "/TREND_closedm1_u55.json");
  ASSERT_TRUE(trend.good());
  std::stringstream ss;
  ss << trend.rdbuf();
  EXPECT_NE(ss.str().find("\"scenario\": \"closedm1_u55\""),
            std::string::npos);
  EXPECT_NE(ss.str().find("\"pass\": true"), std::string::npos);
}

// --out may name a directory that does not exist yet: the sweep makes it,
// parents included, and writes the trend file there.
TEST(ScenarioRun, TrendsGoToAFreshMissingOutDir) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      ("vm1_fresh_out_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  RunnerOptions opts;
  opts.golden_dir = scenario_golden_dir();
  opts.out_dir = (root / "nested" / "trends").string();
  if (std::getenv("VM1_UPDATE_GOLDEN")) opts.update_golden = true;

  SweepSummary sum = run_sweep({probe_scenario()}, opts);
  for (const Violation& v : sum.violations) ADD_FAILURE() << v.str();
  EXPECT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::path(opts.out_dir) / "TREND_closedm1_u55.json"));
  std::filesystem::remove_all(root);
}

// A trend file that cannot be written fails the sweep by name, instead of a
// stderr line and a passing scenario.
TEST(ScenarioRun, UnwritableTrendIsAViolation) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      ("vm1_blocked_out_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  std::ofstream(root / "file") << "not a directory\n";
  RunnerOptions opts;
  opts.golden_dir = scenario_golden_dir();
  opts.out_dir = (root / "file" / "trends").string();
  if (std::getenv("VM1_UPDATE_GOLDEN")) opts.update_golden = true;

  SweepSummary sum = run_sweep({probe_scenario()}, opts);
  EXPECT_FALSE(sum.pass());
  bool named = false;
  for (const Violation& v : sum.violations) {
    if (v.metric == "trend" &&
        v.detail.find(opts.out_dir + "/TREND_closedm1_u55.json") !=
            std::string::npos) {
      named = true;
    } else {
      ADD_FAILURE() << v.str();
    }
  }
  EXPECT_TRUE(named) << "no violation names the trend file";
  std::filesystem::remove_all(root);
}

TEST(ScenarioRun, SeededRegressionDrillTripsTheGate) {
  if (std::getenv("VM1_UPDATE_GOLDEN")) {
    GTEST_SKIP() << "drill is meaningless while regenerating the corpus";
  }
  RunnerOptions opts;
  opts.golden_dir = scenario_golden_dir();
  opts.out_dir = ::testing::TempDir();
  opts.write_trends = false;
  // The drill: cap the MILP at one node. Windows that the golden run
  // solved to proven optimality now keep whatever the root produced, so
  // final quality (HPWL, alignments, vias) drifts off the recorded values
  // — the exact/monotonic gates MUST fail and name scenario + metric.
  opts.perturb = [](FlowOptions& f) { f.vm1.mip.max_nodes = 1; };

  SweepSummary sum = run_sweep({probe_scenario()}, opts);
  ASSERT_FALSE(sum.violations.empty())
      << "perturbed flow passed the gate — the corpus is not protecting "
         "the final quality metrics";
  bool names_final_quality = false;
  for (const Violation& v : sum.violations) {
    EXPECT_EQ(v.scenario, "closedm1_u55");
    EXPECT_FALSE(v.metric.empty());
    EXPECT_FALSE(v.detail.empty());
    if (v.metric.rfind("final_", 0) == 0) names_final_quality = true;
  }
  EXPECT_TRUE(names_final_quality)
      << "violations did not name a final quality metric";
}

#ifdef VM1_SCENARIO_FULL
TEST(ScenarioRun, FullQuickMatrixGatesClean) {
  RunnerOptions opts;
  opts.golden_dir = scenario_golden_dir();
  opts.out_dir = ::testing::TempDir();
  if (std::getenv("VM1_UPDATE_GOLDEN")) opts.update_golden = true;

  std::vector<Scenario> matrix = sweep_matrix(/*quick=*/true);
  SweepSummary sum = run_sweep(matrix, opts);
  EXPECT_EQ(sum.scenarios_run, int(matrix.size()));
  for (const Violation& v : sum.violations) {
    ADD_FAILURE() << v.str();
  }
  // Backend-axis invariant: threads(1), threads(2) and processes(2) gate
  // against independent goldens, but the values must agree — the backends
  // are bit-identical by contract.
  std::map<std::string, double> ref =
      read_scenario_golden(opts.golden_dir, "closedm1_u75");
  for (const char* peer : {"closedm1_u75_t1", "closedm1_u75_proc2"}) {
    std::map<std::string, double> got =
        read_scenario_golden(opts.golden_dir, peer);
    EXPECT_EQ(got, ref) << peer << " diverges from the threads(2) reference";
  }
}
#endif  // VM1_SCENARIO_FULL

}  // namespace
}  // namespace vm1::scenario
