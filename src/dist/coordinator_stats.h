/// \file coordinator_stats.h
/// Transport counters of the distributed window-solve service. Kept free
/// of includes so core/dist_opt.h and core/vm1opt.h can embed them as
/// their `remote` member without pulling in the coordinator.
#pragma once

namespace vm1::dist {

/// Per-pass transport counters: Coordinator::take_stats() returns and
/// resets them, dist_opt folds them into DistOptStats::remote, and vm1opt
/// sums those into VM1OptStats::remote. All zero for the threads backend.
///
/// Byte accounting invariant: bytes_sent counts exactly the bytes handed
/// to the kernel (short writes included); bytes_dropped is the tail of any
/// frame that failed mid-write (so bytes_sent + bytes_dropped == bytes
/// attempted), and bytes_retransmitted is the subset of bytes_sent spent
/// re-sending a window's request after a failed attempt.
struct CoordinatorStats {
  /// Windows handed to workers (incl. retries), one kRequestBatch frame
  /// each.
  long requests = 0;
  long replies = 0;          ///< well-formed window replies accepted
  long retries = 0;          ///< windows re-queued after a failed attempt
  long timeouts = 0;         ///< per-request deadlines that fired
  long desyncs = 0;          ///< kDesync errors (replica rebind + retry)
  long local_fallbacks = 0;  ///< windows solved coordinator-side
  long worker_restarts = 0;  ///< workers re-established after dying
  long connect_failures = 0;    ///< failed establishes (incl. auth)
  long heartbeats_missed = 0;   ///< pings that never saw a pong
  long bytes_sent = 0;          ///< bytes actually handed to the kernel
  long bytes_received = 0;
  long bytes_retransmitted = 0;  ///< bytes_sent spent on retry requests
  long bytes_dropped = 0;        ///< unsent tails of mid-frame failures
  /// Transport-site fault drills *scheduled* for this batch's windows: for
  /// every job, every transport site whose seeded schedule fires on the
  /// window key counts once, at solve_batch entry. A pure function of
  /// (fault config, window keys) — unlike the per-drill counters above it
  /// is independent of dispatch timing and quarantine state, which is what
  /// lets the fault-storm tests assert on it without flaking.
  long faults_scheduled = 0;
  long frames_sent = 0;       ///< frames fully handed to the kernel
  long frames_received = 0;   ///< well-framed messages parsed from workers

  CoordinatorStats& operator+=(const CoordinatorStats& o) {
    requests += o.requests;
    replies += o.replies;
    retries += o.retries;
    timeouts += o.timeouts;
    desyncs += o.desyncs;
    local_fallbacks += o.local_fallbacks;
    worker_restarts += o.worker_restarts;
    connect_failures += o.connect_failures;
    heartbeats_missed += o.heartbeats_missed;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    bytes_retransmitted += o.bytes_retransmitted;
    bytes_dropped += o.bytes_dropped;
    faults_scheduled += o.faults_scheduled;
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    return *this;
  }
};

}  // namespace vm1::dist
