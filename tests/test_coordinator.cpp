/// Coordinator/worker tests for the distributed window-solve service.
///
/// Layer 1 drives run_worker() in-process over a socketpair — the exact
/// loop the vm1_worker executable runs — and checks the protocol: hello,
/// replica binding, signature-checked request batches, sync deltas, typed
/// desync and bad-request entries (out-of-range instances, windows outside
/// the core), the silent fully-dropped batch, orderly shutdown.
///
/// Layer 2 runs whole dist_opt()/Coordinator passes against real worker
/// subprocesses: results must be bit-identical to the threads backend,
/// including under a 25% deterministic fault storm on every transport
/// drill (worker_kill / reply_drop / reply_corrupt / connect_timeout /
/// connect_refused / partition / slow_loris) — the budgeted
/// retry-then-local-fallback policy must absorb every failure without
/// losing a window (outcome taxonomy sums to `windows`) and without
/// changing a single placement.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/dist_opt.h"
#include "core/incremental.h"
#include "core/window.h"
#include "core/window_solve.h"
#include "dist/coordinator.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "design/legality.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/fault_injection.h"
#include "util/subprocess.h"

namespace vm1::dist {
namespace {

Design placed_design(std::uint64_t seed) {
  DesignOptions dopt;
  dopt.scale = 0.3;
  dopt.utilization = 0.7;
  dopt.seed = seed | 1;
  Design d = make_design("tiny", CellArch::kClosedM1, dopt);
  GlobalPlaceOptions gp;
  gp.seed = seed * 131 + 3;
  global_place(d, gp);
  legalize(d);
  return d;
}

DistOptOptions base_opts() {
  DistOptOptions o;
  o.bw = 16;
  o.bh = 2;
  o.params.alpha = 30;
  o.mip.max_nodes = 40;
  o.mip.time_limit_sec = 3600;
  o.mip.lp_options.time_limit_sec = 0;
  o.incremental = false;
  return o;
}

/// Every test runs under a known fault config (the window signature hashes
/// it, so the in-process tests must compute signatures under the same
/// config the request ships).
class DistFixture : public ::testing::Test {
 protected:
  void SetUp() override { fault::set_config(fault::Config{}); }
  void TearDown() override { fault::set_config(fault::Config{}); }
};

using WorkerProtocol = DistFixture;
using CoordinatorEndToEnd = DistFixture;
using CoordinatorFaults = DistFixture;

/// In-process worker on one end of a socketpair; the test is the
/// coordinator side of the wire.
struct WorkerHarness {
  int fd = -1;  ///< test side
  int rc = -1;  ///< run_worker return code
  std::thread thread;
  std::vector<std::uint8_t> rbuf;

  WorkerHarness() {
    int sv[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    fd = sv[0];
    thread = std::thread([this, worker_fd = sv[1]] {
      rc = run_worker(worker_fd);
      close(worker_fd);
    });
  }
  ~WorkerHarness() {
    if (fd >= 0) close(fd);
    if (thread.joinable()) thread.join();
  }

  void send(MsgType type, std::vector<std::uint8_t> payload) {
    std::vector<std::uint8_t> frame =
        encode_frame(type, std::move(payload));
    ASSERT_TRUE(subprocess::write_all(fd, frame.data(), frame.size()));
  }
  /// Sends `rq` as a kRequestBatch of one.
  void send_request(const WireRequest& rq) {
    WireRequestBatch b;
    b.requests = {rq};
    send(MsgType::kRequestBatch, encode_request_batch(b));
  }
  /// Blocking receive of the next frame (test relies on ctest timeouts).
  Frame recv() {
    std::uint8_t chunk[4096];
    for (;;) {
      if (std::optional<Frame> f = extract_frame(rbuf)) return *f;
      long n = subprocess::read_some(fd, chunk, sizeof chunk);
      if (n <= 0) throw WireError("worker closed the socket");
      rbuf.insert(rbuf.end(), chunk, chunk + n);
    }
  }
  /// Receives the kReplyBatch answering a batch of one; returns its entry.
  WireBatchEntry recv_entry() {
    Frame f = recv();
    if (f.type != MsgType::kReplyBatch) {
      throw WireError(std::string("expected reply_batch, got ") +
                      to_string(f.type));
    }
    WireReplyBatch rb = decode_reply_batch(f.payload);
    if (rb.entries.size() != 1) throw WireError("expected one entry");
    return rb.entries[0];
  }
  /// Closes the test side and joins; returns run_worker's exit code.
  int finish() {
    close(fd);
    fd = -1;
    thread.join();
    return rc;
  }
};

/// One solvable window of `d` plus the signature-bearing request, built
/// exactly the way dist_opt prepares remote jobs.
struct PreparedWindow {
  WindowSolveJob job;
  WireRequest request;
};

PreparedWindow prepare_window(const Design& d, const DistOptOptions& o) {
  WindowGrid grid = partition_windows(d, o.tx, o.ty, o.bw, o.bh);
  std::vector<std::vector<int>> nets =
      window_incident_nets(grid, d.netlist());
  int widx = -1;
  for (std::size_t w = 0; w < grid.windows.size(); ++w) {
    if (grid.movable[w].size() >= 2) {
      widx = static_cast<int>(w);
      break;
    }
  }
  EXPECT_GE(widx, 0) << "no window with movable cells";
  PreparedWindow pw;
  pw.job.widx = widx;
  pw.job.key = 99;
  pw.job.window = grid.windows[widx];
  pw.job.movable = grid.movable[widx];
  pw.job.lx = o.lx;
  pw.job.ly = o.ly;
  pw.job.allow_move = o.allow_move;
  pw.job.allow_flip = o.allow_flip;
  pw.job.rounding_fallback = o.rounding_fallback;
  pw.job.params = o.params;
  pw.job.mip = o.mip;
  pw.request.req_id = 1;
  pw.request.job = pw.job;
  pw.request.greedy_fallback = o.greedy_fallback;
  pw.request.faults = fault::config();
  pw.request.expected_sig = window_signature(
      d, pw.job.window, pw.job.movable, grid.owner, widx, nets[widx],
      fixed_site_mask(d, pw.job.window, pw.job.movable), o);
  return pw;
}

TEST_F(WorkerProtocol, HelloBindSolveShutdown) {
  Design d = placed_design(1);
  DistOptOptions o = base_opts();
  PreparedWindow pw = prepare_window(d, o);

  WorkerHarness w;
  Frame hello = w.recv();
  ASSERT_EQ(hello.type, MsgType::kHello);
  WireHello h = decode_hello(hello.payload);
  EXPECT_EQ(h.num_fault_sites, fault::kNumSites);

  w.send(MsgType::kBindDesign, encode_design(d));
  w.send_request(pw.request);
  WireBatchEntry e = w.recv_entry();
  ASSERT_FALSE(e.is_error) << e.error.message;
  const WireReply& rp = e.reply;
  EXPECT_EQ(rp.req_id, pw.request.req_id);
  EXPECT_FALSE(rp.result.failed);

  // The remote solve must be bit-identical to solving the same job here.
  WindowSolveResult local = solve_window(d, pw.job, nullptr);
  EXPECT_EQ(rp.result.usable, local.usable);
  EXPECT_EQ(rp.result.cells, local.cells);
  ASSERT_EQ(rp.result.placements.size(), local.placements.size());
  for (std::size_t i = 0; i < local.placements.size(); ++i) {
    EXPECT_EQ(rp.result.placements[i], local.placements[i]) << "cell " << i;
  }
  EXPECT_EQ(rp.result.objective, local.objective);
  EXPECT_EQ(rp.result.warm_obj, local.warm_obj);

  w.send(MsgType::kShutdown, {});
  EXPECT_EQ(w.finish(), 0);
}

TEST_F(WorkerProtocol, DesyncedReplicaReportsTypedErrorThenRecovers) {
  Design d = placed_design(2);
  DistOptOptions o = base_opts();
  PreparedWindow pw = prepare_window(d, o);

  WorkerHarness w;
  ASSERT_EQ(w.recv().type, MsgType::kHello);

  // Request before any design is bound: a kDesync entry naming it.
  w.send_request(pw.request);
  WireBatchEntry err = w.recv_entry();
  ASSERT_TRUE(err.is_error);
  EXPECT_EQ(err.error.code, ErrorCode::kDesync);
  EXPECT_EQ(err.error.req_id, pw.request.req_id);

  // Bound replica but a stale signature (the design moved on): kDesync.
  w.send(MsgType::kBindDesign, encode_design(d));
  WireRequest stale = pw.request;
  stale.expected_sig.a ^= 1;
  w.send_request(stale);
  err = w.recv_entry();
  ASSERT_TRUE(err.is_error);
  EXPECT_EQ(err.error.code, ErrorCode::kDesync);

  // The correct signature still solves — the worker stayed serviceable.
  w.send_request(pw.request);
  EXPECT_FALSE(w.recv_entry().is_error);

  w.send(MsgType::kShutdown, {});
  EXPECT_EQ(w.finish(), 0);
}

TEST_F(WorkerProtocol, SignsAndMemoizesUnderTheRequestMip) {
  // The worker signs its replica check with the request's own solver
  // limits, so a request signed over limits other than the defaults solves
  // (no desync) within those limits.
  Design d = placed_design(5);
  DistOptOptions o = base_opts();
  o.mip.max_nodes = 7;
  ASSERT_NE(o.mip.max_nodes, milp::BranchAndBound::Options{}.max_nodes);
  PreparedWindow pw = prepare_window(d, o);
  ASSERT_EQ(pw.request.job.mip.max_nodes, 7);

  WorkerHarness w;
  ASSERT_EQ(w.recv().type, MsgType::kHello);
  w.send(MsgType::kBindDesign, encode_design(d));
  w.send_request(pw.request);
  WireBatchEntry first = w.recv_entry();
  ASSERT_FALSE(first.is_error) << first.error.message;
  EXPECT_LE(first.reply.result.nodes, 7);

  w.send(MsgType::kShutdown, {});
  EXPECT_EQ(w.finish(), 0);
}

TEST_F(WorkerProtocol, SyncDeltasKeepReplicaCurrent) {
  Design d = placed_design(3);
  DistOptOptions o = base_opts();

  WorkerHarness w;
  ASSERT_EQ(w.recv().type, MsgType::kHello);
  w.send(MsgType::kBindDesign, encode_design(d));

  // Mutate the authoritative design the way an apply phase would, ship the
  // delta, and prove the replica tracked it: a request signed against the
  // *updated* design must succeed.
  WindowGrid grid = partition_windows(d, 0, 0, o.bw, o.bh);
  int moved = -1;
  for (std::size_t wi = 0; wi < grid.windows.size(); ++wi) {
    if (!grid.movable[wi].empty()) {
      moved = grid.movable[wi][0];
      break;
    }
  }
  ASSERT_GE(moved, 0);
  Placement p = d.placement(moved);
  p.flipped = !p.flipped;
  d.set_placement(moved, p);
  WireSync sync;
  sync.changed = {{moved, p}};
  w.send(MsgType::kSync, encode_sync(sync));

  PreparedWindow pw = prepare_window(d, o);
  w.send_request(pw.request);
  WireBatchEntry e = w.recv_entry();
  EXPECT_FALSE(e.is_error) << "replica missed the sync delta: "
                           << e.error.message;

  w.send(MsgType::kShutdown, {});
  EXPECT_EQ(w.finish(), 0);
}

TEST_F(WorkerProtocol, OutOfRangeInstanceIsBadRequestNotUB) {
  Design d = placed_design(4);
  DistOptOptions o = base_opts();
  PreparedWindow pw = prepare_window(d, o);

  WorkerHarness w;
  ASSERT_EQ(w.recv().type, MsgType::kHello);
  w.send(MsgType::kBindDesign, encode_design(d));
  WireRequest bad = pw.request;
  bad.job.movable.push_back(d.netlist().num_instances() + 5);
  w.send_request(bad);
  WireBatchEntry err = w.recv_entry();
  ASSERT_TRUE(err.is_error);
  EXPECT_EQ(err.error.code, ErrorCode::kBadRequest);
  w.send(MsgType::kShutdown, {});
  EXPECT_EQ(w.finish(), 0);
}

TEST_F(WorkerProtocol, InvertedWindowIsBadRequestThenRecovers) {
  // A window whose far edge lies before its near one (x1 < x0, or
  // row1 < row0) would size the worker's site mask with a negative extent:
  // the worker answers it with a typed entry instead of crashing, and
  // keeps serving.
  Design d = placed_design(6);
  DistOptOptions o = base_opts();
  PreparedWindow pw = prepare_window(d, o);

  WorkerHarness w;
  ASSERT_EQ(w.recv().type, MsgType::kHello);
  w.send(MsgType::kBindDesign, encode_design(d));
  WireRequest cols = pw.request;
  cols.job.window.x1 = cols.job.window.x0 - 2;
  WireRequest rows = pw.request;
  rows.job.window.row1 = rows.job.window.row0 - 2;
  for (const WireRequest& bad : {cols, rows}) {
    w.send_request(bad);
    WireBatchEntry err = w.recv_entry();
    ASSERT_TRUE(err.is_error);
    EXPECT_EQ(err.error.code, ErrorCode::kBadRequest);
    EXPECT_EQ(err.error.req_id, bad.req_id);
  }

  w.send_request(pw.request);
  WireBatchEntry e = w.recv_entry();
  ASSERT_FALSE(e.is_error) << e.error.message;
  EXPECT_FALSE(e.reply.result.failed);

  w.send(MsgType::kShutdown, {});
  EXPECT_EQ(w.finish(), 0);
}

TEST_F(WorkerProtocol, FullyDroppedBatchSendsNoFrame) {
  // reply_drop fires on every window: the worker solves, then sends no
  // frame at all (not an empty batch), so the coordinator's request
  // deadline fires exactly as for a hung worker.
  fault::set_config(fault::parse_spec("reply_drop=1.0,seed=3"));
  Design d = placed_design(5);
  DistOptOptions o = base_opts();
  PreparedWindow pw = prepare_window(d, o);

  WorkerHarness w;
  ASSERT_EQ(w.recv().type, MsgType::kHello);
  w.send(MsgType::kBindDesign, encode_design(d));
  w.send_request(pw.request);
  // The next frame out answers the ping, not the dropped batch.
  WirePing ping;
  ping.seq = 7;
  w.send(MsgType::kPing, encode_ping(ping));
  Frame f = w.recv();
  ASSERT_EQ(f.type, MsgType::kPong);
  EXPECT_EQ(decode_ping(f.payload).seq, 7u);
  w.send(MsgType::kShutdown, {});
  EXPECT_EQ(w.finish(), 0);
}

/// Runs one dist_opt pass; `coordinator` null means threads backend.
DistOptStats run_pass(Design& d, DistOptOptions o, Coordinator* coordinator) {
  if (coordinator) {
    o.backend = DistBackend::kProcesses;
    o.coordinator = coordinator;
  }
  return dist_opt(d, o, nullptr);
}

TEST_F(CoordinatorEndToEnd, ProcessesPassMatchesThreadsBitExactly) {
  Design dp = placed_design(10);
  Design dt = placed_design(10);
  DistOptOptions o = base_opts();

  Coordinator coord(CoordinatorOptions{});
  DistOptStats sp = run_pass(dp, o, &coord);
  DistOptStats st = run_pass(dt, o, nullptr);

  ASSERT_EQ(dp.placements().size(), dt.placements().size());
  for (std::size_t i = 0; i < dp.placements().size(); ++i) {
    EXPECT_EQ(dp.placements()[i], dt.placements()[i]) << "instance " << i;
  }
  EXPECT_EQ(sp.objective.value, st.objective.value);
  EXPECT_EQ(sp.outcome_total(), sp.windows);
  EXPECT_EQ(sp.solved, st.solved);
  EXPECT_GT(sp.remote.replies, 0) << "nothing actually solved remotely";
  EXPECT_EQ(sp.remote.local_fallbacks, 0);
  EXPECT_EQ(sp.remote.desyncs, 0);
  EXPECT_GT(sp.remote.bytes_sent, 0);
  EXPECT_GT(sp.remote.bytes_received, 0);
  EXPECT_FALSE(coord.spawn_broken());
}

TEST_F(CoordinatorEndToEnd, BrokenWorkerBinaryDegradesToAllLocal) {
  Design dp = placed_design(11);
  Design dt = placed_design(11);
  DistOptOptions o = base_opts();

  CoordinatorOptions co;
  co.worker_path = "/nonexistent/vm1_worker";
  co.spawn_timeout_sec = 2.0;
  Coordinator coord(co);
  DistOptStats sp = run_pass(dp, o, &coord);
  DistOptStats st = run_pass(dt, o, nullptr);

  EXPECT_TRUE(coord.spawn_broken());
  EXPECT_EQ(sp.remote.replies, 0);
  EXPECT_GT(sp.remote.local_fallbacks, 0);
  EXPECT_EQ(sp.outcome_total(), sp.windows);
  // The degraded path still produces the identical answer.
  for (std::size_t i = 0; i < dp.placements().size(); ++i) {
    EXPECT_EQ(dp.placements()[i], dt.placements()[i]) << "instance " << i;
  }
  EXPECT_EQ(sp.objective.value, st.objective.value);
}

TEST_F(CoordinatorFaults, QuarterRateTransportStormIsAbsorbedBitExactly) {
  // 25% deterministic faults on every transport drill. The same config is
  // active for the threads reference run (signatures hash the fault
  // config), but the dist sites never fire there — only the transport
  // layer consults them — so the reference is the clean answer.
  fault::Config fc = fault::parse_spec(
      "worker_kill=0.25,reply_drop=0.25,reply_corrupt=0.25,"
      "connect_timeout=0.25,connect_refused=0.25,partition=0.25,"
      "slow_loris=0.25,seed=11");
  fault::set_config(fc);

  Design dp = placed_design(12);
  Design dt = placed_design(12);
  DistOptOptions o = base_opts();
  // Short solver limit: it never binds on these windows (the node limit
  // does), but it sets the reply-drop deadline, keeping the storm fast.
  o.mip.time_limit_sec = 0.5;

  CoordinatorOptions co;
  co.request_timeout_sec = 0.75;
  co.quarantine_base_sec = 0.2;
  Coordinator coord(co);
  DistOptStats sp = run_pass(dp, o, &coord);
  DistOptStats st = run_pass(dt, o, nullptr);

  // No window may be lost to the storm...
  EXPECT_EQ(sp.outcome_total(), sp.windows);
  EXPECT_EQ(sp.windows, st.windows);
  // ...and every drill must have actually fired and been absorbed.
  EXPECT_GT(sp.remote.retries, 0);
  EXPECT_GT(sp.remote.local_fallbacks, 0);
  EXPECT_GT(sp.remote.timeouts, 0)
      << "reply_drop/slow_loris never hit the deadline";
  EXPECT_GT(sp.remote.worker_restarts, 0) << "no killed worker was respawned";
  // (connect_refused / partition counters are NOT asserted here: whether a
  // given window key is ever *dispatched* — rather than drained straight to
  // local while every slot sits quarantined — depends on timing, so their
  // firing in a mixed storm is not reproducible run-to-run. The dedicated
  // rate-1.0 drills below pin those two sites deterministically.)
  // Transport faults are invisible in the results: retried or locally
  // solved windows are bit-identical to the threads reference.
  for (std::size_t i = 0; i < dp.placements().size(); ++i) {
    EXPECT_EQ(dp.placements()[i], dt.placements()[i]) << "instance " << i;
  }
  EXPECT_EQ(sp.objective.value, st.objective.value);
  EXPECT_EQ(sp.solved, st.solved);
  EXPECT_TRUE(is_legal(dp));
}

TEST_F(CoordinatorFaults, ConnectRefusedStormDegradesToLocalBitExactly) {
  // Every dispatch is refused: the first dispatch attempt always happens
  // (slots start healthy), so the counter is deterministic, and the whole
  // pass must degrade to local solving with the identical answer.
  fault::set_config(fault::parse_spec("connect_refused=1.0,seed=7"));

  Design dp = placed_design(14);
  Design dt = placed_design(14);
  DistOptOptions o = base_opts();
  CoordinatorOptions co;
  co.quarantine_base_sec = 0.05;
  Coordinator coord(co);
  DistOptStats sp = run_pass(dp, o, &coord);
  DistOptStats st = run_pass(dt, o, nullptr);

  EXPECT_EQ(sp.outcome_total(), sp.windows);
  EXPECT_GT(sp.remote.connect_failures, 0) << "connect_refused never fired";
  EXPECT_EQ(sp.remote.replies, 0);
  EXPECT_GT(sp.remote.local_fallbacks, 0);
  for (std::size_t i = 0; i < dp.placements().size(); ++i) {
    EXPECT_EQ(dp.placements()[i], dt.placements()[i]) << "instance " << i;
  }
  EXPECT_EQ(sp.objective.value, st.objective.value);
  EXPECT_TRUE(is_legal(dp));
}

TEST_F(CoordinatorFaults, MidFramePartitionDropsBytesButStaysBitExact) {
  // Every request is cut mid-frame: half the frame leaves (accounted as
  // sent), the stranded tail is accounted as dropped, the link dies, and
  // the window is still solved — locally — with the identical answer.
  fault::set_config(fault::parse_spec("partition=1.0,seed=7"));

  Design dp = placed_design(15);
  Design dt = placed_design(15);
  DistOptOptions o = base_opts();
  CoordinatorOptions co;
  co.quarantine_base_sec = 0.05;
  Coordinator coord(co);
  DistOptStats sp = run_pass(dp, o, &coord);
  DistOptStats st = run_pass(dt, o, nullptr);

  EXPECT_EQ(sp.outcome_total(), sp.windows);
  EXPECT_GT(sp.remote.bytes_dropped, 0) << "partition never dropped a frame";
  EXPECT_EQ(sp.remote.replies, 0);
  EXPECT_GT(sp.remote.local_fallbacks, 0);
  EXPECT_GT(sp.remote.worker_restarts, 0);
  for (std::size_t i = 0; i < dp.placements().size(); ++i) {
    EXPECT_EQ(dp.placements()[i], dt.placements()[i]) << "instance " << i;
  }
  EXPECT_EQ(sp.objective.value, st.objective.value);
  EXPECT_TRUE(is_legal(dp));
}

// ---------------------------------------------------------------------
// CoordinatorStats byte-accounting invariants, at the struct level: drive
// solve_batch directly on prepared windows and check the counters against
// the contract documented on CoordinatorStats (bytes_sent = bytes handed
// to the kernel; bytes_dropped = stranded mid-frame tails; retransmitted
// = the subset of bytes_sent spent on retries), clean and after drills.

using CoordinatorStatsInvariants = DistFixture;

/// Up to `maxn` solvable windows of `d`, prepared exactly the way
/// dist_opt hands them to solve_batch (distinct keys; results pinned).
struct PreparedBatch {
  std::vector<WindowSolveJob> jobs;
  std::vector<WindowSolveResult> results;
  std::vector<RemoteJob> remote;
};

PreparedBatch prepare_batch(const Design& d, const DistOptOptions& o,
                            std::size_t maxn) {
  WindowGrid grid = partition_windows(d, o.tx, o.ty, o.bw, o.bh);
  std::vector<std::vector<int>> nets =
      window_incident_nets(grid, d.netlist());
  PreparedBatch b;
  for (std::size_t w = 0; w < grid.windows.size() && b.jobs.size() < maxn;
       ++w) {
    if (grid.movable[w].size() < 2) continue;
    WindowSolveJob j;
    j.widx = static_cast<int>(w);
    j.key = 1000 + static_cast<std::uint64_t>(w);
    j.window = grid.windows[w];
    j.movable = grid.movable[w];
    j.lx = o.lx;
    j.ly = o.ly;
    j.allow_move = o.allow_move;
    j.allow_flip = o.allow_flip;
    j.rounding_fallback = o.rounding_fallback;
    j.params = o.params;
    j.mip = o.mip;
    b.jobs.push_back(std::move(j));
  }
  EXPECT_GE(b.jobs.size(), 2u) << "need at least two solvable windows";
  b.results.resize(b.jobs.size());
  for (std::size_t i = 0; i < b.jobs.size(); ++i) {
    RemoteJob rj;
    rj.job = &b.jobs[i];
    rj.result = &b.results[i];
    rj.greedy_fallback = o.greedy_fallback;
    rj.expected_sig = window_signature(
        d, b.jobs[i].window, b.jobs[i].movable, grid.owner, b.jobs[i].widx,
        nets[static_cast<std::size_t>(b.jobs[i].widx)],
        fixed_site_mask(d, b.jobs[i].window, b.jobs[i].movable), o);
    b.remote.push_back(rj);
  }
  return b;
}

TEST_F(CoordinatorStatsInvariants, CleanBatchSendsEverythingDropsNothing) {
  Design d = placed_design(40);
  DistOptOptions o = base_opts();
  Coordinator coord(CoordinatorOptions{});
  PreparedBatch b = prepare_batch(d, o, 4);

  coord.begin_pass(d);
  coord.solve_batch(d, b.remote, nullptr);
  CoordinatorStats cs = coord.take_stats();

  const long n = static_cast<long>(b.remote.size());
  EXPECT_EQ(cs.requests, n);
  EXPECT_EQ(cs.replies, n);
  EXPECT_EQ(cs.retries, 0);
  EXPECT_EQ(cs.local_fallbacks, 0);
  EXPECT_GT(cs.bytes_sent, 0);
  EXPECT_GT(cs.bytes_received, 0);
  // Nothing failed mid-frame and nothing was retried, so both deltas of
  // the byte-accounting invariant are exactly zero.
  EXPECT_EQ(cs.bytes_dropped, 0);
  EXPECT_EQ(cs.bytes_retransmitted, 0);
  EXPECT_EQ(cs.faults_scheduled, 0) << "census must be zero with faults off";
}

TEST_F(CoordinatorStatsInvariants, PartitionStormAccountsDropsNotRetransmits) {
  // Every request is cut mid-frame. The injection accounts the sent half +
  // the stranded tail and tears the link down BEFORE any retransmit
  // accounting: a partitioned retry must never count as retransmitted.
  fault::set_config(fault::parse_spec("partition=1.0,seed=9"));
  Design d = placed_design(41);
  DistOptOptions o = base_opts();
  CoordinatorOptions co;
  co.quarantine_base_sec = 0.05;
  Coordinator coord(co);
  PreparedBatch b = prepare_batch(d, o, 4);

  coord.begin_pass(d);
  coord.solve_batch(d, b.remote, nullptr);
  CoordinatorStats cs = coord.take_stats();

  const long n = static_cast<long>(b.remote.size());
  EXPECT_EQ(cs.requests, 0) << "a cut frame must not count as a request";
  EXPECT_EQ(cs.replies, 0);
  EXPECT_GT(cs.bytes_sent, 0) << "the pre-cut half is real kernel traffic";
  EXPECT_GT(cs.bytes_dropped, 0);
  EXPECT_EQ(cs.bytes_retransmitted, 0);
  EXPECT_EQ(cs.local_fallbacks, n);
  // Rate 1.0 schedules the partition drill for every window, exactly once.
  EXPECT_EQ(cs.faults_scheduled, n);
}

TEST_F(CoordinatorStatsInvariants, ConnectTimeoutStormSendsNoBytes) {
  // The timeout drill fails the attempt before a single frame is built:
  // the whole batch degrades to local with zero wire traffic.
  fault::set_config(fault::parse_spec("connect_timeout=1.0,seed=9"));
  Design d = placed_design(42);
  DistOptOptions o = base_opts();
  CoordinatorOptions co;
  co.quarantine_base_sec = 0.05;
  Coordinator coord(co);
  PreparedBatch b = prepare_batch(d, o, 4);

  coord.begin_pass(d);
  coord.solve_batch(d, b.remote, nullptr);
  CoordinatorStats cs = coord.take_stats();

  EXPECT_EQ(cs.bytes_sent, 0);
  EXPECT_EQ(cs.bytes_dropped, 0);
  EXPECT_EQ(cs.bytes_retransmitted, 0);
  EXPECT_EQ(cs.requests, 0);
  EXPECT_EQ(cs.replies, 0);
  EXPECT_EQ(cs.local_fallbacks, static_cast<long>(b.remote.size()));
  EXPECT_EQ(cs.faults_scheduled, static_cast<long>(b.remote.size()));
}

TEST_F(CoordinatorStatsInvariants, CorruptRepliesRetransmitWithinBytesSent) {
  // Every reply is corrupted: each window burns its retry (retransmitted
  // bytes) and then falls back locally. Retransmitted bytes are a strict
  // subset of bytes_sent — the invariant the struct doc promises.
  fault::set_config(fault::parse_spec("reply_corrupt=1.0,seed=9"));
  Design d = placed_design(43);
  DistOptOptions o = base_opts();
  CoordinatorOptions co;
  co.quarantine_base_sec = 0.05;
  Coordinator coord(co);
  PreparedBatch b = prepare_batch(d, o, 4);

  coord.begin_pass(d);
  coord.solve_batch(d, b.remote, nullptr);
  CoordinatorStats cs = coord.take_stats();

  EXPECT_GT(cs.retries, 0);
  EXPECT_GT(cs.bytes_retransmitted, 0);
  EXPECT_LT(cs.bytes_retransmitted, cs.bytes_sent);
  EXPECT_EQ(cs.replies, 0) << "a corrupt reply must never be accepted";
  EXPECT_EQ(cs.local_fallbacks, static_cast<long>(b.remote.size()));
  EXPECT_EQ(cs.faults_scheduled, static_cast<long>(b.remote.size()));
}

TEST_F(CoordinatorFaults, CoordinatorReusableAcrossPassesAfterStorm) {
  fault::Config fc = fault::parse_spec("worker_kill=0.3,seed=5");
  fault::set_config(fc);

  Design d = placed_design(13);
  DistOptOptions o = base_opts();
  o.mip.time_limit_sec = 0.5;
  CoordinatorOptions co;
  co.request_timeout_sec = 0.75;
  Coordinator coord(co);

  DistOptStats first = run_pass(d, o, &coord);
  EXPECT_EQ(first.outcome_total(), first.windows);
  double obj_after_first = first.objective.value;

  // Second pass on the mutated design: replicas rebind via the pass
  // digest, respawned workers keep serving, and the objective never
  // regresses (warm-started window solves are non-degrading).
  o.tx = o.bw / 2;
  o.ty = 1;
  DistOptStats second = run_pass(d, o, &coord);
  EXPECT_EQ(second.outcome_total(), second.windows);
  EXPECT_LE(second.objective.value, obj_after_first + 1e-9);
  EXPECT_TRUE(is_legal(d));
}

}  // namespace
}  // namespace vm1::dist
