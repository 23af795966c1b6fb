/// \file job_manager.h
/// The placement service's job manager: admission, lifecycle, execution,
/// deadlines, and drain.
///
/// Lifecycle (dist::JobState, every job ends in exactly one terminal
/// state):
///
///   queued ----> admitted ----> running ----> done
///     |             |             |     \---> failed
///     |             |             \---------> cancelled
///     \-------------+-----------------------> deadline_exceeded
///                                 (cancel while queued -> cancelled)
///
/// Execution: `max_running` executor threads claim queued jobs — a tenant
/// with zero jobs currently running is preferred over FIFO order, so the
/// fair-share scheduler always sees competing tenants when there are any —
/// and run vm1opt() on the job's design. With a shared dist::Coordinator
/// the run borrows the fleet per window batch (lease + TenantThrottle,
/// see scheduler.h); without one each job gets its own thread pool and
/// only `max_running` bounds the parallelism.
///
/// Deadlines ride the existing cancellation plumbing: a watcher thread
/// trips the job's cancel token when its deadline passes, and vm1opt
/// stops at the next window boundary exactly as an external cancel would;
/// a job still queued past its deadline goes terminal directly.
///
/// Retention: a job's design is freed by the first submit() after it goes
/// terminal, and only the `keep_finished` most recent terminal jobs stay
/// queryable, so a long-lived service holds a bounded set of outcomes and
/// its bookkeeping costs the same after its millionth job as after its
/// first.
///
/// SLO surface (obs): svc.queue_depth, svc.jobs_{admitted,rejected,
/// completed,failed,cancelled,deadline_exceeded}, svc.job_latency_sec,
/// and per-tenant svc.tenant.<name>.windows_served and
/// svc.tenant.<name>.cache_hits (solve-cache tier-2 hits, zero without a
/// configured cache backend).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "obs/metrics.h"
#include "svc/admission.h"
#include "svc/job.h"
#include "svc/scheduler.h"

namespace vm1::svc {

struct JobManagerOptions {
  std::vector<TenantConfig> tenants;
  /// Executor threads = jobs running concurrently.
  int max_running = 2;
  /// Bound on jobs waiting in kQueued across all tenants.
  int max_queue_depth = 64;
  /// Shared worker fleet. Non-null: every job runs the processes backend
  /// on this coordinator, batches interleaved by the fair-share scheduler.
  /// Null: each job solves in-process with `job_threads` pool threads.
  dist::Coordinator* coordinator = nullptr;
  unsigned job_threads = 1;
  /// Shared tier-2 solve cache (src/cache). Non-null: every incremental
  /// job probes/writes it, so tenants resubmitting the same design get
  /// their windows served from the store. Must be thread-safe (both
  /// src/cache backends are) and outlive the manager.
  CacheBackend* cache = nullptr;
  /// Deadline watcher tick.
  double deadline_poll_sec = 0.02;
  /// Terminal jobs kept for status() and result(), the oldest dropped
  /// first; a dropped job reads as unknown.
  int keep_finished = 1024;

  void validate() const;  ///< throws std::invalid_argument
};

class JobManager {
 public:
  explicit JobManager(JobManagerOptions opts);
  /// Drains without cancelling running jobs (queued ones are cancelled).
  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  struct Submission {
    bool accepted = false;
    std::uint64_t id = 0;    ///< valid only when accepted
    std::string reason;      ///< rejection reason when !accepted
  };

  /// Admission-checks and enqueues. Rejection (quota, full queue, unknown
  /// tenant, draining) is a normal return, not an exception.
  Submission submit(JobSpec spec);

  /// nullopt for an id never issued or a terminal job dropped past
  /// `keep_finished`.
  std::optional<JobInfo> status(std::uint64_t id) const;
  /// Snapshot outcome; `placements` filled only once the job is kDone.
  /// nullopt as for status().
  std::optional<JobOutcome> result(std::uint64_t id) const;
  /// Requests cancellation. Queued jobs go terminal immediately; running
  /// jobs stop at the next window boundary. Returns false for unknown ids
  /// (cancelling a kept terminal job is a harmless true).
  bool cancel(std::uint64_t id);

  /// Cumulative windows served per tenant (the fair-share account).
  long served_windows(const std::string& tenant) const;
  int queue_depth() const;

  /// Blocks until every submitted job is terminal, or `timeout_sec`
  /// elapses. Returns true when all are terminal.
  bool wait_all_terminal(double timeout_sec);

  /// Graceful shutdown: stop admitting (submissions now reject), cancel
  /// still-queued jobs if asked, wait for running jobs to finish, then
  /// join every thread. Idempotent.
  void drain(bool cancel_queued);

 private:
  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    dist::JobState state = dist::JobState::kQueued;
    std::string reason;
    std::atomic<bool> cancel{false};
    bool cancel_requested = false;    ///< client cancel (vs deadline)
    bool deadline_requested = false;  ///< deadline watcher tripped cancel
    double submitted_at = 0;          ///< manager-clock seconds
    double deadline_at = 0;           ///< absolute; 0 = none
    TenantThrottle throttle;
    // Terminal outcome.
    double objective = 0;
    long windows = 0;
    long solved = 0;
    int outer_iterations = 0;
    double seconds = 0;
    std::vector<Placement> placements;

    Job(FairScheduler* sched, const std::string& tenant)
        : throttle(sched, tenant) {}
  };

  void executor_loop();
  void watcher_loop();
  void run_job(Job& job);
  /// Picks the next claimable queued job (tenant-with-nothing-running
  /// preferred, then FIFO). Caller holds mu_.
  Job* claim_locked();
  /// Makes `job` terminal, hands its design to the next submit() to free
  /// and drops the oldest kept terminal jobs past `keep_finished` (never
  /// `job` itself). Caller holds mu_.
  void finish_locked(Job& job, dist::JobState state, std::string reason,
                     bool was_queued);

  JobManagerOptions opts_;
  AdmissionController admission_;
  FairScheduler scheduler_;
  Timer clock_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      ///< executors: queued job / drain
  std::condition_variable terminal_cv_;  ///< waiters: a job went terminal
  /// Live jobs and the kept terminal ones.
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::set<std::uint64_t> live_;         ///< ids not yet terminal
  std::deque<std::uint64_t> finished_;   ///< kept terminal ids, oldest first
  std::vector<Design> released_;         ///< finished designs to free
  std::vector<std::uint64_t> queue_;     ///< FIFO of queued job ids
  std::map<std::string, int> running_per_tenant_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  bool drained_ = false;
  bool watcher_stop_ = false;
  std::condition_variable watcher_cv_;

  std::vector<std::thread> executors_;
  std::thread watcher_;
};

}  // namespace vm1::svc
