#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dist_opt.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/logging.h"

namespace vm1 {
namespace {

// ---------------------------------------------------------------- metrics

TEST(ObsCounter, ConcurrentAddsAreExact) {
  obs::Counter c;
  const int kThreads = 8;
  const long kAdds = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (long i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST(ObsCounter, BulkAddAndReset) {
  obs::Counter c;
  c.add(5);
  c.add(37);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST(ObsHistogram, BasicStats) {
  obs::Histogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.observe(v);
  obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.75);
  // Log-scale buckets resolve ~19%; quantiles must land in range and be
  // ordered.
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(ObsHistogram, QuantileAccuracyWithinBucketResolution) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(1e-3);  // 1ms latencies
  obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  // All mass in one bucket: every quantile within one sub-bucket (2^(1/4)).
  EXPECT_NEAR(s.p50, 1e-3, 1e-3 * 0.2);
  EXPECT_NEAR(s.p99, 1e-3, 1e-3 * 0.2);
}

TEST(ObsHistogram, ConcurrentObserveCountsEverySample) {
  obs::Histogram h;
  const int kThreads = 8;
  const int kSamples = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (int i = 0; i < kSamples; ++i) {
        h.observe(1e-6 * static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kSamples);
}

TEST(ObsHistogram, NonPositiveValuesLandInFirstBucket) {
  obs::Histogram h;
  h.observe(0.0);
  h.observe(-3.0);
  obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
}

TEST(ObsRegistry, SameNameSameObject) {
  obs::Counter& a = obs::counter("test.registry.same");
  obs::Counter& b = obs::counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = obs::gauge("test.registry.same");  // separate namespace
  obs::Gauge& g2 = obs::gauge("test.registry.same");
  EXPECT_EQ(&g1, &g2);
}

TEST(ObsRegistry, ResetKeepsHandlesValid) {
  obs::Counter& c = obs::counter("test.registry.reset");
  c.add(7);
  obs::reset_metrics();
  EXPECT_EQ(c.value(), 0);
  c.add(3);
  EXPECT_EQ(c.value(), 3);
  EXPECT_EQ(&c, &obs::counter("test.registry.reset"));
}

TEST(ObsRegistry, SnapshotContainsRegisteredMetrics) {
  obs::counter("test.snapshot.counter").add(11);
  obs::gauge("test.snapshot.gauge").set(2.5);
  obs::histogram("test.snapshot.hist").observe(0.5);
  obs::MetricsSnapshot s = obs::snapshot_metrics();
  bool found_c = false, found_g = false, found_h = false;
  for (const auto& [name, v] : s.counters) {
    if (name == "test.snapshot.counter") {
      found_c = true;
      EXPECT_GE(v, 11);
    }
  }
  for (const auto& [name, v] : s.gauges) {
    if (name == "test.snapshot.gauge") {
      found_g = true;
      EXPECT_DOUBLE_EQ(v, 2.5);
    }
  }
  for (const auto& [name, h] : s.histograms) {
    if (name == "test.snapshot.hist") {
      found_h = true;
      EXPECT_GE(h.count, 1u);
    }
  }
  EXPECT_TRUE(found_c);
  EXPECT_TRUE(found_g);
  EXPECT_TRUE(found_h);
}

TEST(ObsScopedTimer, ObservesOnDestruction) {
  obs::Histogram h;
  { obs::ScopedTimer t(h); }
  obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.min, 0.0);
  EXPECT_LT(s.max, 10.0);  // a no-op scope is far under 10 seconds
}

// ----------------------------------------------------------------- trace

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal structural JSON check: quotes/escapes respected, braces and
/// brackets balanced and properly nested, non-empty. Not a full parser,
/// but catches truncation, stray commas in strings, and unbalanced output.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && !escaped && stack.empty() && !s.empty();
}

long count_occurrences(const std::string& hay, const std::string& needle) {
  long n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

class TraceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique: the same tests run in the tier1 and concurrency
    // binaries, which a parallel ctest schedules concurrently.
    path_ = ::testing::TempDir() + "obs_trace_test." +
            std::to_string(::getpid()) + ".json";
  }
  void TearDown() override {
    obs::trace_stop();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(TraceFileTest, DisabledSpansAreNoOps) {
  ASSERT_FALSE(obs::trace_enabled());
  {
    obs::ObsSpan span("test.disabled");
    span.arg("k", 1);
  }
  obs::trace_instant("test.disabled_instant");
  obs::trace_stop();  // no session: must not create a file
  std::ifstream in(path_);
  EXPECT_FALSE(in.good());
}

TEST_F(TraceFileTest, WritesWellFormedJsonWithArgs) {
  obs::trace_start(path_);
  {
    obs::ObsSpan span("test.span");
    span.arg("number", 42).arg("text", "hello \"quoted\"");
  }
  obs::trace_instant("test.instant", "objective", 1.5);
  obs::trace_stop();

  std::string j = slurp(path_);
  EXPECT_TRUE(json_well_formed(j)) << j;
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"test.span\""), std::string::npos);
  EXPECT_NE(j.find("\"number\":42"), std::string::npos);
  EXPECT_NE(j.find("hello \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(j.find("\"test.instant\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(j.find("\"dropped_events\": 0"), std::string::npos);
}

TEST_F(TraceFileTest, RingWrapsKeepingNewestAndReportsDropped) {
  const std::size_t kCap = 8;
  const int kEmit = 20;
  obs::trace_start(path_, kCap);
  for (int i = 0; i < kEmit; ++i) {
    obs::ObsSpan span("test.wrap");
    span.arg("i", i);
  }
  obs::trace_stop();

  std::string j = slurp(path_);
  EXPECT_TRUE(json_well_formed(j)) << j;
  // Exactly kCap events survive (all from this thread), newest last.
  EXPECT_EQ(count_occurrences(j, "\"test.wrap\""), static_cast<long>(kCap));
  EXPECT_NE(j.find("\"dropped_events\": 12"), std::string::npos);
  EXPECT_NE(j.find("\"i\":19}"), std::string::npos);  // newest kept
  EXPECT_EQ(j.find("\"i\":3}"), std::string::npos);   // oldest dropped
}

TEST_F(TraceFileTest, RestartFlushesPreviousSession) {
  std::string path2 = ::testing::TempDir() + "obs_trace_test2." +
                      std::to_string(::getpid()) + ".json";
  obs::trace_start(path_);
  { obs::ObsSpan span("test.first"); }
  obs::trace_start(path2);  // implicit stop + flush of session one
  { obs::ObsSpan span("test.second"); }
  obs::trace_stop();

  std::string j1 = slurp(path_);
  std::string j2 = slurp(path2);
  EXPECT_NE(j1.find("test.first"), std::string::npos);
  EXPECT_EQ(j1.find("test.second"), std::string::npos);
  EXPECT_NE(j2.find("test.second"), std::string::npos);
  EXPECT_EQ(j2.find("test.first"), std::string::npos);
  std::remove(path2.c_str());
}

TEST_F(TraceFileTest, MultiThreadedSpansAllExported) {
  obs::trace_start(path_);
  const int kThreads = 4;
  const int kSpansPer = 10;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        obs::ObsSpan span("test.mt");
      }
    });
  }
  for (auto& t : ts) t.join();
  obs::trace_stop();

  std::string j = slurp(path_);
  EXPECT_TRUE(json_well_formed(j)) << j;
  EXPECT_EQ(count_occurrences(j, "\"test.mt\""),
            static_cast<long>(kThreads) * kSpansPer);
}

// ---------------------------------------------------- solver integration

TEST_F(TraceFileTest, DistOptEmitsOutcomeTaggedWindowSpans) {
  Design d = make_design("tiny", CellArch::kClosedM1);
  global_place(d);
  legalize(d);
  DistOptOptions o;
  o.bw = 16;
  o.bh = 2;
  o.lx = 3;
  o.ly = 1;
  o.mip.max_nodes = 60;
  o.mip.time_limit_sec = 2.0;

  // Start from a zeroed registry so the outcome counters below are this
  // pass's alone.
  obs::reset_metrics();
  obs::Histogram& h = obs::histogram("dist_opt.window_solve_sec");
  std::uint64_t solves_before = h.snapshot().count;

  obs::trace_start(path_);
  DistOptStats stats = dist_opt(d, o, nullptr);
  obs::trace_stop();
  ASSERT_GT(stats.windows, 0);

  std::string j = slurp(path_);
  EXPECT_TRUE(json_well_formed(j)) << j;
  EXPECT_NE(j.find("\"dist_opt.pass\""), std::string::npos);
  EXPECT_NE(j.find("\"dist_opt.window_solve\""), std::string::npos);
  EXPECT_NE(j.find("\"dist_opt.window_apply\""), std::string::npos);
  EXPECT_NE(j.find("\"outcome\""), std::string::npos);
  EXPECT_NE(j.find("\"milp.solve\""), std::string::npos);

  // Every counted window carries an outcome tag from the taxonomy.
  long tagged = 0;
  for (const char* name :
       {"\"solved\"", "\"fallback_rounding\"", "\"fallback_greedy\"",
        "\"rejected_audit\"", "\"kept\"", "\"faulted\""}) {
    tagged += count_occurrences(j, name);
  }
  EXPECT_GE(tagged, stats.windows);

  // The latency histogram required by the bench JSON saw this pass.
  EXPECT_GT(h.snapshot().count, solves_before);
  // And each registry outcome counter equals its bucket in the struct view:
  // every window is counted once, in one bucket.
  const std::pair<const char*, int> buckets[] = {
      {"solved", stats.solved},
      {"fallback_rounding", stats.fallback_rounding},
      {"fallback_greedy", stats.fallback_greedy},
      {"rejected_audit", stats.rejected_audit},
      {"kept", stats.kept},
      {"faulted", stats.faulted},
      {"skipped", stats.skipped},
      {"cached_remote", stats.cached_remote},
  };
  for (const auto& [bucket, field] : buckets) {
    EXPECT_EQ(obs::counter(std::string("dist_opt.outcome.") + bucket).value(),
              field)
        << bucket;
  }
}

// -------------------------------------------------------------- progress

TEST(ObsProgress, EmitsThroughLogSinkWithEtaAndObjective) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, const std::string& msg) {
    lines.push_back(msg);
  });
  {
    obs::ProgressReporter p("unit_test", 4, /*interval_sec=*/0.0);
    p.update_objective(100.0);
    p.advance();
    p.update_objective(90.0);
    p.advance(3);
    p.finish();
  }
  set_log_sink(nullptr);

  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("unit_test: 1/4"), std::string::npos);
  EXPECT_NE(lines[0].find("objective 100"), std::string::npos);
  bool saw_final = false;
  for (const std::string& l : lines) {
    if (l.find("4/4 (100%)") != std::string::npos) saw_final = true;
  }
  EXPECT_TRUE(saw_final);
}

TEST(ObsProgress, QuietWhenIntervalNotElapsed) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, const std::string& msg) {
    lines.push_back(msg);
  });
  {
    obs::ProgressReporter p("quiet_test", 100, /*interval_sec=*/3600.0);
    for (int i = 0; i < 100; ++i) p.advance();
  }  // destructor finish(): nothing was emitted, so it stays silent
  set_log_sink(nullptr);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.find("quiet_test"), std::string::npos) << l;
  }
}

TEST(ObsProgress, OpenEndedModeReportsSteps) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, const std::string& msg) {
    lines.push_back(msg);
  });
  {
    obs::ProgressReporter p("steps_test", 0, /*interval_sec=*/0.0);
    p.advance();
    p.advance();
  }
  set_log_sink(nullptr);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("steps"), std::string::npos);
}

}  // namespace
}  // namespace vm1
