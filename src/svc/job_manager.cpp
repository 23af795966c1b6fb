#include "svc/job_manager.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/trace.h"
#include "util/logging.h"

namespace vm1::svc {

namespace {

struct Metrics {
  obs::Gauge& queue_depth = obs::gauge("svc.queue_depth");
  obs::Counter& admitted = obs::counter("svc.jobs_admitted");
  obs::Counter& rejected = obs::counter("svc.jobs_rejected");
  obs::Counter& completed = obs::counter("svc.jobs_completed");
  obs::Counter& failed = obs::counter("svc.jobs_failed");
  obs::Counter& cancelled = obs::counter("svc.jobs_cancelled");
  obs::Counter& deadline_exceeded = obs::counter("svc.jobs_deadline_exceeded");
  obs::Histogram& latency_sec = obs::histogram("svc.job_latency_sec");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

}  // namespace

void JobManagerOptions::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("JobManagerOptions: " + what);
  };
  if (tenants.empty()) bad("at least one tenant required");
  if (max_running <= 0) {
    bad("max_running must be > 0, got " + std::to_string(max_running));
  }
  if (max_queue_depth <= 0) {
    bad("max_queue_depth must be > 0, got " +
        std::to_string(max_queue_depth));
  }
  if (deadline_poll_sec <= 0) {
    bad("deadline_poll_sec must be > 0, got " +
        std::to_string(deadline_poll_sec));
  }
  if (keep_finished <= 0) {
    bad("keep_finished must be > 0, got " + std::to_string(keep_finished));
  }
}

JobManager::JobManager(JobManagerOptions opts)
    : opts_(std::move(opts)),
      admission_(opts_.max_queue_depth, opts_.tenants),
      scheduler_(opts_.tenants) {
  opts_.validate();
  executors_.reserve(static_cast<std::size_t>(opts_.max_running));
  for (int i = 0; i < opts_.max_running; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  watcher_ = std::thread([this] { watcher_loop(); });
}

JobManager::~JobManager() { drain(true); }

JobManager::Submission JobManager::submit(JobSpec spec) {
  std::vector<Design> released;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  released.swap(released_);
  Submission sub;
  if (draining_) {
    sub.reason = "service draining";
    metrics().rejected.add();
    return sub;
  }
  if (spec.deadline_sec < 0 || spec.sequence.empty() || !spec.design) {
    sub.reason = !spec.design          ? "missing design"
                 : spec.sequence.empty() ? "empty parameter sequence"
                                         : "negative deadline";
    metrics().rejected.add();
    return sub;
  }
  // Solver options arrive from the client's frame: refuse a bad job here
  // instead of letting it fault every window on the shared fleet.
  try {
    spec.mip.validate();
  } catch (const std::invalid_argument& e) {
    sub.reason = e.what();
    metrics().rejected.add();
    return sub;
  }
  if (std::optional<std::string> reject = admission_.try_admit(spec.tenant)) {
    sub.reason = *reject;
    metrics().rejected.add();
    log_info("svc: rejected job from '", spec.tenant, "': ", sub.reason);
    return sub;
  }
  auto job = std::make_unique<Job>(&scheduler_, spec.tenant);
  job->id = next_id_++;
  job->submitted_at = clock_.seconds();
  job->deadline_at =
      spec.deadline_sec > 0 ? job->submitted_at + spec.deadline_sec : 0;
  job->spec = std::move(spec);
  sub.accepted = true;
  sub.id = job->id;
  queue_.push_back(job->id);
  live_.insert(job->id);
  jobs_.emplace(job->id, std::move(job));
  metrics().admitted.add();
  metrics().queue_depth.set(admission_.queue_depth());
  work_cv_.notify_one();
  return sub;
}

JobManager::Job* JobManager::claim_locked() {
  // Two-pass claim: a queued job of a tenant with nothing running beats
  // plain FIFO, so under saturation every tenant keeps a runner alive and
  // the fair-share scheduler arbitrates between them; within a tenant the
  // order stays FIFO. Stale (already-terminal) queue entries — queued
  // cancels and queued deadline expiries — are swept here.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      auto jit = jobs_.find(*it);
      if (jit == jobs_.end() ||
          jit->second->state != dist::JobState::kQueued) {
        it = queue_.erase(it);
        continue;
      }
      Job& job = *jit->second;
      if (pass == 0 && running_per_tenant_[job.spec.tenant] > 0) {
        ++it;
        continue;
      }
      queue_.erase(it);
      return &job;
    }
  }
  return nullptr;
}

void JobManager::executor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
    Job* job = claim_locked();
    if (!job) {
      if (draining_) return;
      continue;  // queue held only stale entries; wait again
    }
    job->state = dist::JobState::kAdmitted;
    admission_.on_started(job->spec.tenant);
    ++running_per_tenant_[job->spec.tenant];
    metrics().queue_depth.set(admission_.queue_depth());
    lock.unlock();
    run_job(*job);
    lock.lock();
  }
}

void JobManager::run_job(Job& job) {
  obs::ObsSpan span("svc.job");
  span.arg("tenant", job.spec.tenant.c_str()).arg("job", job.id);

  {
    std::lock_guard<std::mutex> lock(mu_);
    // The deadline may have fired between claim and here; run_job still
    // proceeds — vm1opt sees the tripped token and returns immediately,
    // funneling the job through the one terminal bookkeeping path below.
    job.state = dist::JobState::kRunning;
  }

  VM1OptOptions o;
  o.params = job.spec.params;
  o.sequence = job.spec.sequence;
  o.theta = job.spec.theta;
  o.max_inner_iters = job.spec.max_inner_iters;
  o.flip_pass = job.spec.flip_pass;
  o.shift_windows = job.spec.shift_windows;
  o.incremental = job.spec.incremental;
  o.mip = job.spec.mip;
  o.cache = opts_.cache;  // no-op unless the job runs incremental
  o.cancel = &job.cancel;
  if (opts_.coordinator) {
    o.backend = DistBackend::kProcesses;
    o.coordinator = opts_.coordinator;
    o.fleet_token = job.id;  // unique per job: ids are never reused
    o.throttle = &job.throttle;
  } else {
    o.backend = DistBackend::kThreads;
    o.threads = opts_.job_threads;
  }

  bool threw = false;
  std::string error;
  VM1OptStats stats;
  try {
    stats = vm1opt(*job.spec.design, o);
  } catch (const std::exception& e) {
    threw = true;
    error = e.what();
    log_warn("svc: job ", job.id, " (", job.spec.tenant, ") failed: ", error);
  }

  std::lock_guard<std::mutex> lock(mu_);
  dist::JobState terminal;
  std::string reason;
  if (threw) {
    terminal = dist::JobState::kFailed;
    reason = error;
  } else if (job.cancel_requested) {
    terminal = dist::JobState::kCancelled;
    reason = "cancelled by client";
  } else if (job.deadline_requested) {
    terminal = dist::JobState::kDeadlineExceeded;
    reason = "deadline exceeded mid-run";
  } else {
    terminal = dist::JobState::kDone;
  }
  if (!threw) {
    job.objective = stats.final.value;
    job.windows = stats.windows;
    job.solved = stats.solved;
    job.outer_iterations = stats.outer_iterations;
    if (terminal == dist::JobState::kDone) {
      job.placements = job.spec.design->placements();
    }
    if (!opts_.coordinator) {
      // Threads-backend jobs never pass the fleet gate; credit their
      // windows so served_windows() is the one account either way.
      scheduler_.credit(job.spec.tenant, stats.windows);
    }
    if (stats.cache_hits > 0) {
      obs::counter("svc.tenant." + job.spec.tenant + ".cache_hits")
          .add(stats.cache_hits);
    }
  }
  --running_per_tenant_[job.spec.tenant];
  finish_locked(job, terminal, std::move(reason), /*was_queued=*/false);
  span.arg("state", to_string(terminal));
}

void JobManager::finish_locked(Job& job, dist::JobState state,
                               std::string reason, bool was_queued) {
  job.state = state;
  job.reason = std::move(reason);
  job.seconds = clock_.seconds() - job.submitted_at;
  admission_.on_terminal(job.spec.tenant, was_queued);
  switch (state) {
    case dist::JobState::kDone:
      metrics().completed.add();
      break;
    case dist::JobState::kFailed:
      metrics().failed.add();
      break;
    case dist::JobState::kCancelled:
      metrics().cancelled.add();
      break;
    case dist::JobState::kDeadlineExceeded:
      metrics().deadline_exceeded.add();
      break;
    default:
      break;  // unreachable: finish_locked is only called with terminals
  }
  metrics().latency_sec.observe(job.seconds);
  metrics().queue_depth.set(admission_.queue_depth());
  // Only a run reads the design. The next submit() frees it, outside the
  // lock: in the service that is the thread that decoded it. Freed on the
  // executor instead, it cost several times as much, contending with the
  // next decode for the same malloc arena on the executor's critical path.
  if (job.spec.design) {
    released_.push_back(std::move(*job.spec.design));
    job.spec.design.reset();
  }
  live_.erase(job.id);
  finished_.push_back(job.id);
  while (finished_.size() > static_cast<std::size_t>(opts_.keep_finished)) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
  terminal_cv_.notify_all();
  work_cv_.notify_all();
}

void JobManager::watcher_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (watcher_cv_.wait_for(
              lock,
              std::chrono::duration<double>(opts_.deadline_poll_sec),
              [this] { return watcher_stop_; })) {
        return;
      }
      const double now = clock_.seconds();
      // Advance before finish_locked erases the current id from live_.
      for (auto it = live_.begin(); it != live_.end();) {
        Job& job = *jobs_.at(*it++);
        if (job.deadline_at <= 0 || now < job.deadline_at) continue;
        if (job.state == dist::JobState::kQueued) {
          job.deadline_requested = true;
          finish_locked(job, dist::JobState::kDeadlineExceeded,
                        "deadline expired while queued",
                        /*was_queued=*/true);
        } else if (!job.deadline_requested) {
          // Running (or about to): trip the cancellation token; vm1opt
          // stops at the next window boundary and run_job maps the clean
          // return to kDeadlineExceeded.
          job.deadline_requested = true;
          job.cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
  }
}

std::optional<JobInfo> JobManager::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.tenant = job.spec.tenant;
  info.reason = job.reason;
  info.objective = job.objective;
  info.windows_done = job.windows;
  return info;
}

std::optional<JobOutcome> JobManager::result(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobOutcome out;
  out.id = job.id;
  out.state = job.state;
  out.error = job.reason;
  out.objective = job.objective;
  out.windows = job.windows;
  out.solved = job.solved;
  out.outer_iterations = job.outer_iterations;
  out.seconds = job.seconds;
  if (job.state == dist::JobState::kDone) out.placements = job.placements;
  return out;
}

bool JobManager::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (dist::job_state_terminal(job.state)) return true;
  job.cancel_requested = true;
  job.cancel.store(true, std::memory_order_relaxed);
  if (job.state == dist::JobState::kQueued) {
    finish_locked(job, dist::JobState::kCancelled, "cancelled by client",
                  /*was_queued=*/true);
  }
  return true;
}

long JobManager::served_windows(const std::string& tenant) const {
  return scheduler_.served_windows(tenant);
}

int JobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_.queue_depth();
}

bool JobManager::wait_all_terminal(double timeout_sec) {
  std::unique_lock<std::mutex> lock(mu_);
  return terminal_cv_.wait_for(lock, std::chrono::duration<double>(timeout_sec),
                               [this] { return live_.empty(); });
}

void JobManager::drain(bool cancel_queued) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (drained_) return;
    draining_ = true;
    if (cancel_queued) {
      for (std::uint64_t id : queue_) {
        auto it = jobs_.find(id);
        if (it == jobs_.end()) continue;
        Job& job = *it->second;
        if (job.state != dist::JobState::kQueued) continue;
        job.cancel_requested = true;
        finish_locked(job, dist::JobState::kCancelled, "cancelled by drain",
                      /*was_queued=*/true);
      }
      queue_.clear();
    }
    work_cv_.notify_all();
  }
  for (std::thread& t : executors_) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    watcher_stop_ = true;
    watcher_cv_.notify_all();
  }
  watcher_.join();
  std::lock_guard<std::mutex> lock(mu_);
  drained_ = true;
}

}  // namespace vm1::svc
