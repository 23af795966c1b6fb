/// \file bench.h
/// Shared pieces of the repository benchmark driver (vm1bench): command
/// line, the span recorder, registry deltas, and the run record every
/// workload fills in.
///
/// The driver treats the program as a black box: it calls the public
/// functions of each layer (or talks to the service over loopback TCP) and
/// records one span per call from its own code. Counts come from the obs
/// registry the program already keeps; nothing here adds a span or option
/// to the library.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace vm1bench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's scratch files, report and trace.
  std::string out_dir;
  /// > 0 caps branch-and-bound at this many nodes per window (the
  /// quality-for-speed drill of the benchmark's tests); 0 keeps the
  /// operating point.
  int max_nodes = 0;
};

/// Seconds on the steady clock since the driver started.
double now_s();

/// One call into a layer, as seen from the driver. Spans of one service job
/// share `job`; `parent` is the index of the enclosing span or -1.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

/// In-memory span recorder. Disabled recorders return -1 and record
/// nothing; spans are written out only when the run ends. Thread-safe: the
/// service clients record from their own threads.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  int open(const std::string& name, int parent = -1, std::uint64_t job = 0);
  void close(int id);
  /// Records an interval the driver observed rather than bracketed (the
  /// queued and running phases of a job, from the states it polls).
  int add(const std::string& name, double start, double end, int parent,
          std::uint64_t job);
  std::vector<Span> spans() const;
  /// Wall time spent inside the recorder itself.
  double self_seconds() const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  double self_s_ = 0;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, int parent = -1,
        std::uint64_t job = 0)
      : t_(t), id_(t.open(name, parent, job)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Registry values flattened to name -> number: counters by name,
/// histograms as `<name>.count`, `.sum`, `.p50` and `.p95` (gauges are
/// left out).
using Counts = std::map<std::string, double>;

Counts snapshot_counts();
/// The exact work counts of `c` (nonzero counters and histogram sample
/// counts, less the clock-driven heartbeats and the per-tenant split),
/// which a run must repeat.
Counts work_counters(const Counts& c);
double get(const Counts& c, const std::string& key);
/// Element-wise a + b over the union of keys.
void accumulate(Counts& into, const Counts& add);

/// Quality of one design before and after optimization. Routed fields are
/// zero where a workload does not route.
struct Qor {
  long align_before = 0, align_after = 0;
  double hpwl_before = 0, hpwl_after = 0;
  long dm1_before = 0, dm1_after = 0;
  long rwl_before = 0, rwl_after = 0;
  long via12_before = 0, via12_after = 0;
  long drv_before = 0, drv_after = 0;
  double obj_before = 0, obj_after = 0;  ///< the optimizer's objective

  void add(const Qor& o);
};

/// Everything a workload reports; main.cpp turns it into metrics.
struct Run {
  std::vector<double> setup_s;        ///< one per repeated set-up
  std::vector<double> latency_s;      ///< one per completed job / flow unit
  double window_s = 0;                ///< measured window wall time
  long window_jobs = 0;               ///< jobs completed within the window
  long attempted = 0;                 ///< operations: units, jobs, checks
  long failed = 0;                    ///< operations with a failed check
  std::vector<std::string> failures;  ///< every failed check, described
  Qor qor;                            ///< over the designs of the run
  /// Per-layer metrics the workload measured itself (name -> value).
  std::map<std::string, double> layer;
  /// Work counts and QoR of the run, for the repeat-exactly check.
  Counts work;

  void fail(const std::string& what);
  /// Counts one operation, failed if a check failed since `failures_before`
  /// (the size of `failures` when it started).
  void count_op(std::size_t failures_before);
};

double median(std::vector<double> v);
/// The highest percentile with at least `beyond` samples above it; the
/// maximum when the run has no more samples than that.
double tail(std::vector<double> v, std::size_t beyond = 10);

/// Windows the optimizer settled in `c`: the sum of its outcome buckets.
double outcome_windows(const Counts& c);

/// Per-layer metrics that follow from registry counts taken over `jobs`
/// jobs (flow units or service jobs): route, lp, milp, core, dist and
/// cache. Times and counts are per job; fractions are over the window.
void registry_layers(const Counts& c, double jobs,
                     std::map<std::string, double>& out);

/// Self time per span name: duration minus the part covered by children.
std::map<std::string, double> self_times(const std::vector<Span>& spans);
/// Smallest share of a root span's wall time that its descendants'
/// self times cover (1.0 when no root has children).
double min_root_coverage(const std::vector<Span>& spans,
                         const std::string& root_name);

Run run_flow_closedm1(const Args& args, Tracer& tracer);
Run run_svc_resubmit(const Args& args, Tracer& tracer);

}  // namespace vm1bench
