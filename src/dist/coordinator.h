/// \file coordinator.h
/// Coordinator side of the distributed window-solve service.
///
/// Owns a fleet of N workers reached through a pluggable transport
/// (dist/transport.h): fork/exec'd socketpair children, or TCP peers that
/// attach to the coordinator's listener (dist/tcp.h). Keeps a full design
/// replica bound on every worker (kBindDesign on first use / staleness,
/// kSync placement deltas after every batch), and dispatches prepared
/// WindowSolveJobs one window per kRequestBatch frame, with one frame in
/// flight per worker — the bounded in-flight queue that keeps a request's
/// deadline meaningful.
///
/// Supervision (see DESIGN.md "Distributed window solving"):
///
///   * Failure matrix — worker crash (EOF), hang (per-request deadline ->
///     teardown), malformed or corrupted reply (checksum/decode failure ->
///     connection dropped), replica desync (typed kError from the worker's
///     signature check), connect refusal, mid-frame partition, and
///     slow-loris partial replies all funnel through the same policy:
///     retry the window on a (possibly re-established) worker while the
///     batch's retry budget lasts, then solve it locally in-process.
///   * Heartbeats — idle workers are pinged (kPing/kPong) so a silently
///     dead peer is caught between requests, not discovered by the next
///     dispatch.
///   * Health — each worker slot walks healthy -> suspect -> quarantined
///     on a decaying failure score; quarantine doubles per episode and a
///     slot that keeps flapping is retired (the fleet shrinks). Staged
///     degradation ends at all-local solving — never a failed run.
///
/// solve_batch() always returns with every job's result filled: the
/// DistOpt apply phase above it cannot tell where a window solved, which
/// is what keeps the WindowOutcome taxonomy summing to `windows` and the
/// processes backend bit-identical to threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/window_solve.h"
#include "dist/coordinator_stats.h"
#include "dist/transport.h"
#include "util/logging.h"

namespace vm1::dist {

/// Which transport the coordinator builds for itself (the test-only
/// constructor overload accepts a ready-made Transport instead).
enum class TransportKind { kSocketpair, kTcp };

/// Worker slot health, walked by the failure-score supervisor. A failure
/// (death, timeout, corrupt stream, missed heartbeat, connect error) adds
/// one point; every success halves the score. One point makes a slot
/// suspect, three quarantine it (duration doubling per episode up to a
/// 30 s cap), and flapping past four episodes retires it for good.
enum class WorkerHealth { kHealthy, kSuspect, kQuarantined, kRetired };

struct CoordinatorOptions {
  int num_workers = 2;
  /// Worker executable. Empty resolves $VM1_WORKER, then the build-baked
  /// default (VM1_WORKER_DEFAULT, apps/vm1_worker in the build tree).
  std::string worker_path;
  /// Slack added to a request's MIP time limit to form its deadline; a
  /// worker silent past it is presumed hung and torn down. Benchmarks keep
  /// the default; fault tests shrink it so reply-drop drills stay fast.
  double request_timeout_sec = 10.0;
  /// Deadline for establishing one worker connection (spawn + kHello, or
  /// TCP accept + auth handshake).
  double spawn_timeout_sec = 10.0;

  TransportKind transport = TransportKind::kSocketpair;
  std::string tcp_host = "127.0.0.1";  ///< TCP listen address
  int tcp_port = 0;                    ///< 0 = ephemeral
  /// TCP auth secret; empty resolves $VM1_DIST_SECRET.
  std::string secret;
  /// TCP only: spawn loopback workers (`vm1_worker --connect`) ourselves.
  /// false = remote attach only; establish just waits for peers launched
  /// out-of-band.
  bool tcp_self_spawn = true;

  /// A pinged worker that stays silent this long is presumed dead. (Idle
  /// workers are pinged after 2 s of silence.)
  double heartbeat_timeout_sec = 5.0;

  /// First quarantine episode length, in (0, 30]; doubles per episode up
  /// to a 30 s cap.
  double quarantine_base_sec = 0.5;

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

/// One prepared window handed to solve_batch. `result` is always filled
/// on return (remotely or by the local fallback).
struct RemoteJob {
  const WindowSolveJob* job = nullptr;
  WindowSolveResult* result = nullptr;
  /// Canonical window signature over the coordinator's design, shipped
  /// with the request so the worker can prove its replica agrees
  /// (mismatch -> kDesync -> rebind + retry).
  WindowSig expected_sig;
  /// The one signature input `job` does not carry: the greedy-fallback
  /// flag, which the worker never runs.
  bool greedy_fallback = true;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opts = {});
  /// Test/service seam: run the supervision logic over a caller-provided
  /// transport (e.g. a TcpTransport whose port the test already knows).
  Coordinator(CoordinatorOptions opts, std::unique_ptr<Transport> transport);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Eagerly establishes connections for every connectable slot (normally
  /// they come up lazily at first dispatch). Returns the live count.
  int connect_workers();

  /// Pings every idle live worker and waits up to `timeout_sec` for the
  /// pongs; silent workers are torn down (heartbeats_missed). Returns the
  /// live count after. Also runs implicitly from begin_pass when workers
  /// have been idle past the heartbeat interval.
  int heartbeat(double timeout_sec);

  int alive_workers() const;
  WorkerHealth worker_health(int widx) const;

  /// Marks worker replicas stale when `d` differs from the design state
  /// the coordinator last certified (end_pass). Call before the pass's
  /// first solve_batch.
  void begin_pass(const Design& d);

  /// Fleet-sharing seam for the placement service (src/svc): multiple jobs
  /// multiplex their batches onto one coordinator, each under a distinct
  /// nonzero token. When the token differs from the previous lease the
  /// replicas are marked stale and the cached snapshot/digest dropped, so
  /// the next dispatch rebinds the new owner's design — O(1) when the same
  /// job keeps the lease across its own batches. Returns true when the
  /// lease was already held (replicas still current for this owner).
  bool lease(std::uint64_t token);

  /// Solves every job, dispatching to workers with budgeted retries and a
  /// guaranteed local fallback. Serial from the caller's perspective;
  /// never throws on worker failure. `cancel` is forwarded to local
  /// fallback solves only (workers are bounded by the request deadline
  /// instead).
  void solve_batch(const Design& d, std::vector<RemoteJob>& jobs,
                   const std::atomic<bool>* cancel);

  /// Broadcasts the apply phase's placement deltas to every bound
  /// replica. Call after each batch is committed.
  void sync(const std::vector<std::pair<int, Placement>>& changed);

  /// Records the design state workers are now synced to, so the next
  /// begin_pass on an unchanged design skips the rebind.
  void end_pass(const Design& d);

  /// Per-pass counters; returns and resets.
  CoordinatorStats take_stats();

  /// True once worker connection establishment has been declared broken
  /// (repeated consecutive failures) — every subsequent window solves
  /// locally. Exposed for tests of the degraded path.
  bool spawn_broken() const { return spawn_broken_; }

 private:
  struct Slot;
  struct Pending;

  bool ensure_worker(Slot& slot);
  bool bind_if_stale(Slot& slot, const Design& d);
  const std::vector<std::uint8_t>& snapshot(const Design& d);
  void worker_died(Slot& slot, const char* why);
  void note_failure(Slot& slot);
  void note_success(Slot& slot);
  void update_health_gauges();
  void send_ping(Slot& slot);
  void handle_pong(Slot& slot, std::uint64_t seq);
  bool send_frame_to(Slot& slot, std::vector<std::uint8_t> frame);
  void shutdown_workers();

  CoordinatorOptions opts_;
  std::unique_ptr<Transport> transport_;
  std::vector<Slot> slots_;
  Timer clock_;
  CoordinatorStats stats_;
  std::optional<std::uint64_t> last_digest_;
  std::optional<std::vector<std::uint8_t>> snapshot_;
  std::uint64_t seq_ = 0;
  std::uint64_t ping_seq_ = 0;
  std::uint64_t lease_ = 0;
  bool spawn_broken_ = false;
  int consecutive_spawn_failures_ = 0;
};

}  // namespace vm1::dist
