#include "dist/coordinator.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dist/tcp.h"
#include "dist/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"

#ifndef VM1_WORKER_DEFAULT
#define VM1_WORKER_DEFAULT ""
#endif

namespace vm1::dist {

namespace {

/// Give up on establishing workers after this many consecutive failures:
/// the binary is missing/broken (or no remote peer ever attaches), and
/// every window degrades to the local fallback instead of a respawn storm.
constexpr int kMaxConsecutiveSpawnFailures = 3;
/// Remote attempts per window before the local fallback.
constexpr int kMaxAttempts = 2;
/// Per-batch remote retry budget: max(kMinRetryBudget,
/// ceil(kRetryBudgetFactor * jobs)). Once spent, further failures go
/// straight to the local fallback instead of re-queueing.
constexpr double kRetryBudgetFactor = 0.5;
constexpr long kMinRetryBudget = 4;
/// Idle workers silent this long get a kPing.
constexpr double kHeartbeatIntervalSec = 2.0;
/// Failure-score thresholds for the health state machine.
constexpr double kSuspectScore = 1.0;
constexpr double kQuarantineScore = 3.0;
/// Cap on one quarantine episode (the first lasts quarantine_base_sec and
/// each later one doubles it).
constexpr double kQuarantineMaxSec = 30.0;
/// Quarantine episodes before a slot is retired (fleet shrink).
constexpr int kMaxQuarantineEpisodes = 4;

std::string resolve_worker_path(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("VM1_WORKER")) {
    if (*env) return env;
  }
  return VM1_WORKER_DEFAULT;
}

struct Metrics {
  obs::Counter& requests = obs::counter("dist.requests");
  obs::Counter& replies = obs::counter("dist.replies");
  obs::Counter& retries = obs::counter("dist.retries");
  obs::Counter& timeouts = obs::counter("dist.timeouts");
  obs::Counter& desyncs = obs::counter("dist.desyncs");
  obs::Counter& local_fallbacks = obs::counter("dist.local_fallbacks");
  obs::Counter& worker_restarts = obs::counter("dist.worker_restarts");
  obs::Counter& connect_failures = obs::counter("dist.connect_failures");
  obs::Counter& heartbeats_missed = obs::counter("dist.heartbeats_missed");
  obs::Counter& bytes_sent = obs::counter("dist.bytes_sent");
  obs::Counter& bytes_received = obs::counter("dist.bytes_received");
  obs::Counter& bytes_retransmitted =
      obs::counter("dist.bytes_retransmitted");
  obs::Counter& bytes_dropped = obs::counter("dist.bytes_dropped");
  obs::Gauge& queue_depth = obs::gauge("dist.queue_depth");
  obs::Gauge& workers_healthy = obs::gauge("dist.workers_healthy");
  obs::Gauge& workers_suspect = obs::gauge("dist.workers_suspect");
  obs::Gauge& workers_quarantined = obs::gauge("dist.workers_quarantined");
  obs::Histogram& rpc_sec = obs::histogram("dist.rpc_sec");
  obs::Histogram& heartbeat_rtt_sec = obs::histogram("dist.heartbeat_rtt_sec");
  obs::Histogram& serialize_sec = obs::histogram("dist.serialize_sec");
  obs::Histogram& deserialize_sec = obs::histogram("dist.deserialize_sec");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

}  // namespace

void CoordinatorOptions::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("CoordinatorOptions: " + what);
  };
  if (num_workers < 1 || num_workers > 64) {
    bad("num_workers must be in [1, 64], got " + std::to_string(num_workers));
  }
  if (request_timeout_sec <= 0) {
    bad("request_timeout_sec must be > 0, got " +
        std::to_string(request_timeout_sec));
  }
  if (spawn_timeout_sec <= 0) {
    bad("spawn_timeout_sec must be > 0, got " +
        std::to_string(spawn_timeout_sec));
  }
  if (tcp_port < 0 || tcp_port > 65535) {
    bad("tcp_port must be in [0, 65535], got " + std::to_string(tcp_port));
  }
  if (heartbeat_timeout_sec <= 0) {
    bad("heartbeat_timeout_sec must be > 0, got " +
        std::to_string(heartbeat_timeout_sec));
  }
  if (quarantine_base_sec <= 0 || quarantine_base_sec > kQuarantineMaxSec) {
    bad("quarantine_base_sec must be in (0, " +
        std::to_string(kQuarantineMaxSec) + "], got " +
        std::to_string(quarantine_base_sec));
  }
}

struct Coordinator::Pending {
  RemoteJob* rj = nullptr;  ///< caller's job entry (result filled here)
  int attempts = 0;   ///< remote attempts consumed
};

struct Coordinator::Slot {
  std::unique_ptr<Connection> conn;
  bool alive = false;
  bool current = false;     ///< replica bound and synced to the design
  bool restart = false;     ///< next successful establish is a restart
  std::vector<std::uint8_t> rbuf;
  /// The window awaiting this worker's answer (null when idle) and its
  /// request id. At most one frame of one window is in flight per worker,
  /// and `deadline` below is that frame's.
  Pending* inflight = nullptr;
  std::uint64_t inflight_id = 0;
  double sent_at = 0;
  double deadline = 0;
  // Supervision state (see WorkerHealth).
  WorkerHealth health = WorkerHealth::kHealthy;
  double failure_score = 0;
  int quarantine_episodes = 0;
  double quarantined_until = 0;
  double last_activity = 0;   ///< last byte received (or establish time)
  bool ping_outstanding = false;
  std::uint64_t ping_seq = 0;
  double ping_sent_at = 0;
  double ping_deadline = 0;
};

Coordinator::Coordinator(CoordinatorOptions opts) : opts_(std::move(opts)) {
  opts_.validate();
  slots_.resize(static_cast<std::size_t>(opts_.num_workers));
  if (opts_.transport == TransportKind::kTcp) {
    TcpTransportOptions topts;
    topts.host = opts_.tcp_host;
    topts.port = opts_.tcp_port;
    topts.secret = opts_.secret;
    topts.io_timeout_sec = opts_.request_timeout_sec;
    if (opts_.tcp_self_spawn) {
      topts.worker_path = resolve_worker_path(opts_.worker_path);
    }
    // Bind failure throws (a config error, unlike per-worker failures).
    transport_ = std::make_unique<TcpTransport>(std::move(topts));
  } else {
    std::string path = resolve_worker_path(opts_.worker_path);
    // Empty path leaves transport_ null; the first dispatch degrades to
    // all-local with a single warning (see ensure_worker).
    if (!path.empty()) transport_ = make_socketpair_transport(path);
  }
}

Coordinator::Coordinator(CoordinatorOptions opts,
                         std::unique_ptr<Transport> transport)
    : opts_(std::move(opts)), transport_(std::move(transport)) {
  opts_.validate();
  slots_.resize(static_cast<std::size_t>(opts_.num_workers));
}

Coordinator::~Coordinator() { shutdown_workers(); }

void Coordinator::shutdown_workers() {
  for (Slot& s : slots_) {
    if (s.alive && s.conn) {
      std::vector<std::uint8_t> frame = encode_frame(MsgType::kShutdown, {});
      s.conn->write_all(frame.data(), frame.size());
    }
    if (s.conn) {
      s.conn->hard_close();
      s.conn.reset();
    }
    s.alive = false;
    s.current = false;
    s.inflight = nullptr;
  }
}

int Coordinator::alive_workers() const {
  int n = 0;
  for (const Slot& s : slots_) {
    if (s.alive) ++n;
  }
  return n;
}

WorkerHealth Coordinator::worker_health(int widx) const {
  return slots_.at(static_cast<std::size_t>(widx)).health;
}

void Coordinator::update_health_gauges() {
  int healthy = 0, suspect = 0, quarantined = 0;
  for (const Slot& s : slots_) {
    switch (s.health) {
      case WorkerHealth::kHealthy:
        ++healthy;
        break;
      case WorkerHealth::kSuspect:
        ++suspect;
        break;
      case WorkerHealth::kQuarantined:
        ++quarantined;
        break;
      case WorkerHealth::kRetired:
        break;
    }
  }
  metrics().workers_healthy.set(healthy);
  metrics().workers_suspect.set(suspect);
  metrics().workers_quarantined.set(quarantined);
}

void Coordinator::note_failure(Slot& slot) {
  slot.failure_score += 1.0;
  if (slot.health == WorkerHealth::kRetired) return;
  if (slot.failure_score >= kQuarantineScore) {
    ++slot.quarantine_episodes;
    if (slot.quarantine_episodes > kMaxQuarantineEpisodes) {
      slot.health = WorkerHealth::kRetired;
      log_warn("dist: worker slot retired after ", kMaxQuarantineEpisodes,
               " quarantine episodes; fleet shrinks to ", alive_workers(),
               " live workers");
    } else {
      // Episode length doubles each time a slot re-offends; the score
      // resets so a re-admitted worker gets a clean (if suspect) start.
      double dur = opts_.quarantine_base_sec *
                   static_cast<double>(1 << std::min(
                       slot.quarantine_episodes - 1, 20));
      dur = std::min(dur, kQuarantineMaxSec);
      slot.health = WorkerHealth::kQuarantined;
      slot.quarantined_until = clock_.seconds() + dur;
      slot.failure_score = 0;
      log_warn("dist: worker slot quarantined for ", dur, "s (episode ",
               slot.quarantine_episodes, "/", kMaxQuarantineEpisodes,
               ")");
    }
  } else if (slot.health == WorkerHealth::kHealthy) {
    slot.health = WorkerHealth::kSuspect;
  }
  update_health_gauges();
}

void Coordinator::note_success(Slot& slot) {
  slot.failure_score *= 0.5;
  if (slot.health == WorkerHealth::kSuspect &&
      slot.failure_score < kSuspectScore) {
    slot.health = WorkerHealth::kHealthy;
  }
  update_health_gauges();
}

bool Coordinator::send_frame_to(Slot& slot, std::vector<std::uint8_t> frame) {
  std::size_t written = slot.conn->write_all(frame.data(), frame.size());
  stats_.bytes_sent += static_cast<long>(written);
  metrics().bytes_sent.add(static_cast<long>(written));
  if (written == frame.size()) {
    ++stats_.frames_sent;
    return true;
  }
  // Mid-frame short write: the stream cannot be re-framed, so the unsent
  // tail is dropped along with the connection.
  stats_.bytes_dropped += static_cast<long>(frame.size() - written);
  metrics().bytes_dropped.add(static_cast<long>(frame.size() - written));
  worker_died(slot, "send failed mid-frame");
  return false;
}

bool Coordinator::ensure_worker(Slot& slot) {
  if (slot.alive) return true;
  if (spawn_broken_) return false;
  if (slot.health == WorkerHealth::kRetired) return false;
  if (slot.health == WorkerHealth::kQuarantined) {
    if (clock_.seconds() < slot.quarantined_until) return false;
    // Quarantine served: fall through to a re-admission probe.
  }
  if (!transport_) {
    log_warn("dist: no worker binary configured (set VM1_WORKER); "
             "falling back to local solves");
    spawn_broken_ = true;
    return false;
  }
  std::optional<Established> est =
      transport_->establish(opts_.spawn_timeout_sec);
  if (est && est->hello.num_fault_sites != fault::kNumSites) {
    log_warn("dist: worker fault-site count mismatch (stale binary)");
    est->conn->hard_close();
    est.reset();
  }
  if (!est) {
    ++stats_.connect_failures;
    metrics().connect_failures.add();
    note_failure(slot);
    if (++consecutive_spawn_failures_ >= kMaxConsecutiveSpawnFailures) {
      spawn_broken_ = true;
      log_warn("dist: worker establishment declared broken after ",
               consecutive_spawn_failures_,
               " consecutive failures; solving locally (transport: ",
               transport_->name(), ")");
    }
    return false;
  }
  consecutive_spawn_failures_ = 0;
  slot.conn = std::move(est->conn);
  slot.rbuf = std::move(est->leftover);
  slot.alive = true;
  slot.current = false;
  slot.last_activity = clock_.seconds();
  slot.ping_outstanding = false;
  if (slot.health == WorkerHealth::kQuarantined) {
    log_info("dist: quarantined worker slot re-admitted on probation");
    slot.health = WorkerHealth::kSuspect;
    slot.failure_score = kSuspectScore;
  }
  if (slot.restart) {
    ++stats_.worker_restarts;
    metrics().worker_restarts.add();
  }
  slot.restart = true;
  update_health_gauges();
  return true;
}

int Coordinator::connect_workers() {
  for (Slot& s : slots_) ensure_worker(s);
  return alive_workers();
}

const std::vector<std::uint8_t>& Coordinator::snapshot(const Design& d) {
  if (!snapshot_) {
    obs::ScopedTimer t(metrics().serialize_sec);
    snapshot_ = encode_design(d);
  }
  return *snapshot_;
}

bool Coordinator::bind_if_stale(Slot& slot, const Design& d) {
  if (slot.current) return true;
  obs::ObsSpan span("dist.bind_design");
  if (!send_frame_to(slot,
                     encode_frame(MsgType::kBindDesign, snapshot(d)))) {
    return false;
  }
  slot.current = true;
  return true;
}

void Coordinator::worker_died(Slot& slot, const char* why) {
  log_warn("dist: worker ", slot.conn ? slot.conn->pid() : -1, " lost (",
           why, "), window will be retried or solved locally");
  if (slot.conn) {
    slot.conn->hard_close();
    slot.conn.reset();
  }
  slot.alive = false;
  slot.current = false;
  slot.rbuf.clear();
  slot.ping_outstanding = false;
  note_failure(slot);
  // The caller requeues slot.inflight; worker_died only severs the link.
}

void Coordinator::send_ping(Slot& slot) {
  WirePing ping;
  ping.seq = ++ping_seq_;
  if (!send_frame_to(slot,
                     encode_frame(MsgType::kPing, encode_ping(ping)))) {
    return;
  }
  slot.ping_outstanding = true;
  slot.ping_seq = ping.seq;
  slot.ping_sent_at = clock_.seconds();
  slot.ping_deadline = slot.ping_sent_at + opts_.heartbeat_timeout_sec;
}

void Coordinator::handle_pong(Slot& slot, std::uint64_t seq) {
  if (!slot.ping_outstanding || seq != slot.ping_seq) return;  // stale
  slot.ping_outstanding = false;
  metrics().heartbeat_rtt_sec.observe(clock_.seconds() - slot.ping_sent_at);
  note_success(slot);
}

int Coordinator::heartbeat(double timeout_sec) {
  for (Slot& s : slots_) {
    if (!s.alive || s.inflight || s.ping_outstanding) continue;
    send_ping(s);
  }
  const double deadline = clock_.seconds() + timeout_sec;
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<Slot*> fd_slots;
    for (Slot& s : slots_) {
      if (!s.alive || !s.ping_outstanding) continue;
      fds.push_back(pollfd{s.conn->fd(), POLLIN, 0});
      fd_slots.push_back(&s);
    }
    if (fds.empty()) break;
    double wait = deadline - clock_.seconds();
    if (wait <= 0) {
      for (Slot* s : fd_slots) {
        ++stats_.heartbeats_missed;
        metrics().heartbeats_missed.add();
        worker_died(*s, "heartbeat missed");
      }
      break;
    }
    poll(fds.data(), static_cast<nfds_t>(fds.size()),
         static_cast<int>(std::min(wait * 1000.0 + 1.0, 100.0)));
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Slot& slot = *fd_slots[i];
      if (!slot.alive) continue;
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::uint8_t chunk[4096];
      long n = slot.conn->read_some(chunk, sizeof chunk);
      if (n <= 0) {
        ++stats_.heartbeats_missed;
        metrics().heartbeats_missed.add();
        worker_died(slot, n == 0 ? "worker exited" : "read error");
        continue;
      }
      stats_.bytes_received += n;
      metrics().bytes_received.add(n);
      slot.last_activity = clock_.seconds();
      slot.rbuf.insert(slot.rbuf.end(), chunk, chunk + n);
      try {
        std::optional<Frame> f;
        while (slot.alive && (f = extract_frame(slot.rbuf))) {
          ++stats_.frames_received;
          if (f->type == MsgType::kPong) {
            handle_pong(slot, decode_ping(f->payload).seq);
          } else if (f->type == MsgType::kHello ||
                     f->type == MsgType::kError) {
            // Tolerated between batches; nothing is in flight.
          } else {
            throw WireError("unexpected frame during heartbeat");
          }
        }
      } catch (const WireError& e) {
        worker_died(slot, e.what());
      }
    }
  }
  return alive_workers();
}

void Coordinator::begin_pass(const Design& d) {
  std::uint64_t digest = design_digest(d);
  if (!last_digest_ || *last_digest_ != digest) {
    for (Slot& s : slots_) s.current = false;
  }
  last_digest_ = digest;
  snapshot_.reset();
  // Catch silently-dead peers before the pass dispatches to them.
  const double now = clock_.seconds();
  for (const Slot& s : slots_) {
    if (s.alive && now - s.last_activity >= kHeartbeatIntervalSec) {
      heartbeat(opts_.heartbeat_timeout_sec);
      break;
    }
  }
}

void Coordinator::end_pass(const Design& d) {
  last_digest_ = design_digest(d);
  snapshot_.reset();
}

bool Coordinator::lease(std::uint64_t token) {
  if (token == lease_) return true;
  lease_ = token;
  // Another job owned the replicas (or this is the first lease): whatever
  // design they track is not this owner's. Drop the certification so the
  // next dispatch rebinds, exactly as begin_pass does on a digest change —
  // but without the O(design) digest, since ownership alone decides.
  for (Slot& s : slots_) s.current = false;
  last_digest_.reset();
  snapshot_.reset();
  return false;
}

void Coordinator::sync(const std::vector<std::pair<int, Placement>>& changed) {
  snapshot_.reset();
  if (changed.empty()) return;
  obs::ObsSpan span("dist.sync");
  span.arg("cells", changed.size());
  WireSync s;
  s.changed = changed;
  std::vector<std::uint8_t> frame =
      encode_frame(MsgType::kSync, encode_sync(s));
  for (Slot& slot : slots_) {
    if (!slot.alive) continue;
    if (!slot.current) continue;  // will get a full rebind at next dispatch
    send_frame_to(slot, frame);   // on failure the slot is marked dead
  }
}

void Coordinator::solve_batch(const Design& d, std::vector<RemoteJob>& jobs,
                              const std::atomic<bool>* cancel) {
  obs::ObsSpan span("dist.solve_batch");
  span.arg("jobs", jobs.size());
  const bool fault_on = fault::config().enabled();

  if (fault_on) {
    // Timing-invariant drill census: which transport drills the seeded
    // schedule covers for this batch, counted up front. Whether each one
    // actually fires depends on dispatch order and quarantine state, but
    // the schedule itself is a pure function of (config, window keys) —
    // the fault-storm tests assert on this aggregate instead of the
    // per-drill counters.
    static constexpr fault::Site kTransportSites[] = {
        fault::Site::kWorkerKill,     fault::Site::kReplyDrop,
        fault::Site::kReplyCorrupt,   fault::Site::kConnectTimeout,
        fault::Site::kConnectRefused, fault::Site::kPartition,
        fault::Site::kSlowLoris,
    };
    for (const RemoteJob& rj : jobs) {
      for (fault::Site s : kTransportSites) {
        if (fault::should_fire(s, rj.job->key)) ++stats_.faults_scheduled;
      }
    }
  }

  std::vector<Pending> pendings(jobs.size());
  std::deque<Pending*> queue;
  std::deque<Pending*> local;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pendings[i].rj = &jobs[i];
    queue.push_back(&pendings[i]);
  }
  std::size_t remaining = pendings.size();

  // Retry budget: a storm of failures must not turn into quadratic
  // re-dispatching — once the batch's budget is spent, further failures
  // skip the queue and go straight to the guaranteed local path.
  long retry_budget = std::max(
      kMinRetryBudget,
      static_cast<long>(std::ceil(kRetryBudgetFactor *
                                  static_cast<double>(jobs.size()))));

  auto fail_attempt = [&](Pending* p) {
    if (++p->attempts >= kMaxAttempts || retry_budget <= 0) {
      local.push_back(p);
    } else {
      --retry_budget;
      ++stats_.retries;
      metrics().retries.add();
      queue.push_back(p);
    }
  };

  // Resolve the in-flight window by request id (a stale id returns null).
  auto take_inflight = [](Slot& slot, std::uint64_t req_id) -> Pending* {
    if (slot.inflight_id != req_id) return nullptr;
    return std::exchange(slot.inflight, nullptr);
  };
  // Fail the window still in flight on a slot (worker death, corrupt
  // stream, deadline, or a batch answer that omitted it).
  auto fail_inflight = [&](Slot& slot) {
    if (Pending* p = std::exchange(slot.inflight, nullptr)) fail_attempt(p);
  };

  while (remaining > 0) {
    // Local fallbacks drain first: they are the guaranteed-progress path,
    // so the loop can never spin without shrinking `remaining`.
    while (!local.empty()) {
      Pending* p = local.front();
      local.pop_front();
      ++stats_.local_fallbacks;
      metrics().local_fallbacks.add();
      *p->rj->result = solve_window(d, *p->rj->job, cancel);
      --remaining;
    }
    if (remaining == 0) break;

    // Dispatch: one kRequestBatch frame of one window in flight per
    // worker. The pre-send drills run on the window before it is sent; a
    // timed-out connect leaves the slot free for the next queued window.
    for (Slot& slot : slots_) {
      if (queue.empty()) break;
      if (slot.inflight) continue;
      if (!ensure_worker(slot)) continue;
      Pending* p = nullptr;
      while (!p && !queue.empty()) {
        Pending* next = queue.front();
        queue.pop_front();
        if (fault_on && fault::should_fire(fault::Site::kConnectRefused,
                                           next->rj->job->key)) {
          // Unlike connect_timeout, a refusal discredits the connection:
          // tear it down so the next dispatch has to re-establish. Checked
          // before connect_timeout so a key firing both still exercises the
          // teardown path (the timeout drill has no side effects to shadow).
          log_warn("dist: injected connect_refused, window ",
                   next->rj->job->widx);
          ++stats_.connect_failures;
          metrics().connect_failures.add();
          worker_died(slot, "injected connect refused");
          fail_attempt(next);
          break;
        }
        if (fault_on && fault::should_fire(fault::Site::kConnectTimeout,
                                           next->rj->job->key)) {
          log_warn("dist: injected connect_timeout, window ",
                   next->rj->job->widx);
          fail_attempt(next);
          continue;
        }
        p = next;
      }
      if (!p) continue;
      if (!bind_if_stale(slot, d)) {
        fail_attempt(p);
        continue;
      }
      WireRequestBatch batch;
      WireRequest& rq = batch.requests.emplace_back();
      rq.req_id = ++seq_;
      rq.job = *p->rj->job;
      rq.greedy_fallback = p->rj->greedy_fallback;
      rq.faults = fault::config();
      rq.expected_sig = p->rj->expected_sig;
      std::vector<std::uint8_t> frame;
      {
        obs::ScopedTimer t(metrics().serialize_sec);
        frame = encode_frame(MsgType::kRequestBatch,
                             encode_request_batch(batch));
      }
      if (fault_on &&
          fault::should_fire(fault::Site::kPartition, p->rj->job->key)) {
        // Mid-frame partition: half the frame leaves, the link dies. The
        // worker sees a truncated frame then EOF; the stranded tail is
        // accounted as dropped and the window is retried.
        log_warn("dist: injected partition, window ", p->rj->job->widx);
        std::size_t half = frame.size() / 2;
        std::size_t written = slot.conn->write_all(frame.data(), half);
        stats_.bytes_sent += static_cast<long>(written);
        metrics().bytes_sent.add(static_cast<long>(written));
        stats_.bytes_dropped += static_cast<long>(frame.size() - written);
        metrics().bytes_dropped.add(
            static_cast<long>(frame.size() - written));
        worker_died(slot, "injected mid-frame partition");
        fail_attempt(p);
        continue;
      }
      if (p->attempts > 0) {
        stats_.bytes_retransmitted += static_cast<long>(frame.size());
        metrics().bytes_retransmitted.add(static_cast<long>(frame.size()));
      }
      if (!send_frame_to(slot, std::move(frame))) {
        fail_attempt(p);
        continue;
      }
      ++stats_.requests;
      metrics().requests.add();
      slot.inflight = p;
      slot.inflight_id = rq.req_id;
      slot.sent_at = clock_.seconds();
      slot.deadline = slot.sent_at + p->rj->job->mip.time_limit_sec +
                      opts_.request_timeout_sec;
    }
    metrics().queue_depth.set(static_cast<double>(queue.size()));

    bool any_inflight = false;
    for (const Slot& slot : slots_) {
      if (slot.inflight) {
        any_inflight = true;
        break;
      }
    }
    if (!any_inflight) {
      // Staged degradation: when no worker can take work now — spawning
      // declared broken, every slot retired, or the whole fleet sitting
      // out a quarantine — the rest of the batch solves locally rather
      // than waiting out quarantines window by window.
      bool any_dispatchable = false;
      const double now = clock_.seconds();
      for (const Slot& s : slots_) {
        if (s.health == WorkerHealth::kRetired) continue;
        if (s.health == WorkerHealth::kQuarantined &&
            now < s.quarantined_until && !s.alive) {
          continue;
        }
        any_dispatchable = true;
        break;
      }
      if (spawn_broken_ || !transport_ || !any_dispatchable) {
        while (!queue.empty()) {
          local.push_back(queue.front());
          queue.pop_front();
        }
      }
      continue;  // either drain `local`, or retry establishing next lap
    }

    // Heartbeat idle-but-live workers mid-batch, so a silently dead peer
    // is torn down before the next dispatch would trust it.
    {
      const double now = clock_.seconds();
      for (Slot& slot : slots_) {
        if (!slot.alive || slot.inflight || slot.ping_outstanding) continue;
        if (now - slot.last_activity >= kHeartbeatIntervalSec) {
          send_ping(slot);
        }
      }
    }

    // Wait for replies (or the nearest deadline). Idle live workers are
    // polled too: their EOFs and pongs must not wait for a dispatch.
    std::vector<pollfd> fds;
    std::vector<Slot*> fd_slots;
    double next_deadline = std::numeric_limits<double>::infinity();
    for (Slot& slot : slots_) {
      if (!slot.alive) continue;
      fds.push_back(pollfd{slot.conn->fd(), POLLIN, 0});
      fd_slots.push_back(&slot);
      if (slot.inflight) next_deadline = std::min(next_deadline, slot.deadline);
      if (slot.ping_outstanding) {
        next_deadline = std::min(next_deadline, slot.ping_deadline);
      }
    }
    double wait = next_deadline - clock_.seconds();
    int timeout_ms = wait <= 0 ? 0
                               : static_cast<int>(
                                     std::min(wait * 1000.0 + 1.0, 200.0));
    poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    for (std::size_t i = 0; i < fds.size(); ++i) {
      Slot& slot = *fd_slots[i];
      if (!slot.alive) continue;
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::uint8_t chunk[1 << 16];
      long n = slot.conn->read_some(chunk, sizeof chunk);
      if (n <= 0) {
        worker_died(slot, n == 0 ? "worker exited" : "read error");
        fail_inflight(slot);
        continue;
      }
      stats_.bytes_received += n;
      metrics().bytes_received.add(n);
      slot.last_activity = clock_.seconds();
      slot.rbuf.insert(slot.rbuf.end(), chunk, chunk + n);
      try {
        std::optional<Frame> f;
        while (slot.alive && (f = extract_frame(slot.rbuf))) {
          ++stats_.frames_received;
          if (f->type == MsgType::kReplyBatch) {
            WireReplyBatch rb;
            try {
              obs::ScopedTimer t(metrics().deserialize_sec);
              rb = decode_reply_batch(f->payload);
            } catch (const WireError& e) {
              log_warn("dist: malformed reply batch: ", e.what());
              fail_inflight(slot);
              continue;
            }
            metrics().rpc_sec.observe(clock_.seconds() - slot.sent_at);
            for (WireBatchEntry& entry : rb.entries) {
              if (entry.is_error) {
                Pending* p = take_inflight(slot, entry.error.req_id);
                if (entry.error.code == ErrorCode::kDesync) {
                  ++stats_.desyncs;
                  metrics().desyncs.add();
                  slot.current = false;  // next dispatch rebinds
                } else {
                  log_warn("dist: worker error (",
                           static_cast<int>(entry.error.code), "): ",
                           entry.error.message);
                }
                if (p) fail_attempt(p);
                continue;
              }
              Pending* p = take_inflight(slot, entry.reply.req_id);
              if (!p) continue;  // stale
              ++stats_.replies;
              metrics().replies.add();
              *p->rj->result = std::move(entry.reply.result);
              --remaining;
            }
            // The batch answer is complete: if it did not resolve the
            // window in flight, fail it now instead of waiting out the
            // deadline.
            fail_inflight(slot);
            note_success(slot);
          } else if (f->type == MsgType::kPong) {
            handle_pong(slot, decode_ping(f->payload).seq);
          } else if (f->type == MsgType::kError) {
            // Per-window errors travel as batch entries; a top-level error
            // rejects the whole frame (undecodable batch, bad snapshot).
            WireErrorMsg e = decode_error(f->payload);
            log_warn("dist: worker error (", static_cast<int>(e.code),
                     "): ", e.message);
            fail_inflight(slot);
          } else if (f->type == MsgType::kHello) {
            // Duplicate hello after an internal restart: harmless.
          } else {
            throw WireError("unexpected frame from worker");
          }
        }
      } catch (const WireError& e) {
        // Framing/checksum failure: the byte stream itself cannot be
        // trusted any further (this is where reply_corrupt drills land).
        worker_died(slot, e.what());
        fail_inflight(slot);
      }
    }

    // Deadlines: a silent worker is presumed hung — kill it and retry the
    // window (reply-drop and slow-loris drills land here); a silent ping
    // means the peer died between requests.
    double now = clock_.seconds();
    for (Slot& slot : slots_) {
      if (slot.alive && slot.ping_outstanding && now >= slot.ping_deadline) {
        ++stats_.heartbeats_missed;
        metrics().heartbeats_missed.add();
        worker_died(slot, "heartbeat missed");
        fail_inflight(slot);
        continue;
      }
      if (!slot.inflight || now < slot.deadline) continue;
      ++stats_.timeouts;
      metrics().timeouts.add();
      worker_died(slot, "request deadline exceeded");
      fail_inflight(slot);
    }
  }
  metrics().queue_depth.set(0);
}

CoordinatorStats Coordinator::take_stats() {
  CoordinatorStats out = stats_;
  stats_ = CoordinatorStats{};
  return out;
}

}  // namespace vm1::dist
