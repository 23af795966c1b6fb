/// Placement-service suite (`ctest -L svc`): job-frame codec roundtrips,
/// deficit-round-robin fair-share scheduling, admission control, the
/// JobManager lifecycle (queued -> admitted -> running -> exactly one
/// terminal state, deadlines riding the cancellation token, graceful
/// drain), the TCP front-end protocol, and the acceptance soaks: three
/// tenants with mixed quotas and deadlines multiplexed onto one shared
/// worker fleet — per-tenant shares tracking the configured weights under
/// saturation, every completed job bit-identical to a standalone vm1opt()
/// run, clean and under the 25% seven-site transport fault storm.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/vm1opt.h"
#include "design/design.h"
#include "dist/coordinator.h"
#include "dist/tcp.h"
#include "dist/wire.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "svc/admission.h"
#include "svc/job_manager.h"
#include "svc/scheduler.h"
#include "svc/service.h"
#include "util/fault_injection.h"
#include "util/subprocess.h"

namespace vm1::svc {
namespace {

#ifdef VM1_EQUIV_LIGHT
constexpr int kSoakJobsPerTenant = 2;
constexpr double kSoakScale = 0.25;
#else
constexpr int kSoakJobsPerTenant = 4;
constexpr double kSoakScale = 0.35;
#endif

Design placed_design(std::uint64_t seed, double scale = 0.3) {
  DesignOptions dopt;
  dopt.scale = scale;
  dopt.utilization = 0.7;
  dopt.seed = seed | 1;
  Design d = make_design("tiny", CellArch::kClosedM1, dopt);
  GlobalPlaceOptions gp;
  gp.seed = seed * 131 + 3;
  global_place(d, gp);
  legalize(d);
  return d;
}

/// Bit-exact design duplicate via the wire codec (Design is move-only).
Design duplicate(const Design& d) {
  return dist::decode_design(dist::encode_design(d));
}

/// Fast deterministic optimizer knobs: the node limit binds, wall clock
/// never, so every run of the same spec is bit-identical.
JobSpec fast_spec(const std::string& tenant, Design d) {
  JobSpec s;
  s.tenant = tenant;
  s.design = std::move(d);
  s.sequence = {ParamSet{16, 2, 2, 1}};
  s.theta = 0;
  s.max_inner_iters = 1;
  s.incremental = false;
  s.params.alpha = 30;
  s.mip.max_nodes = 40;
  s.mip.time_limit_sec = 3600;
  s.mip.lp_options.time_limit_sec = 0;
  return s;
}

/// The exact standalone VM1OptOptions JobManager::run_job builds for a
/// threads-backend job — the bit-identity reference.
VM1OptOptions standalone_opts(const JobSpec& s, unsigned threads = 1) {
  VM1OptOptions o;
  o.params = s.params;
  o.sequence = s.sequence;
  o.theta = s.theta;
  o.max_inner_iters = s.max_inner_iters;
  o.flip_pass = s.flip_pass;
  o.shift_windows = s.shift_windows;
  o.incremental = s.incremental;
  o.mip = s.mip;
  o.backend = DistBackend::kThreads;
  o.threads = threads;
  return o;
}

class SvcFixture : public ::testing::Test {
 protected:
  void SetUp() override { fault::set_config(fault::Config{}); }
  void TearDown() override { fault::set_config(fault::Config{}); }
};

using SvcWire = SvcFixture;
using SvcScheduler = SvcFixture;
using SvcAdmission = SvcFixture;
using SvcJobManager = SvcFixture;
using SvcService = SvcFixture;
using SvcSoak = SvcFixture;

// ---------------------------------------------------------------------
// Job-frame codec roundtrips.

TEST_F(SvcWire, SubmitJobRoundTripsEveryField) {
  dist::WireSubmitJob in;
  in.tenant = "gold";
  in.name = "nightly-aes";
  in.deadline_sec = 12.5;
  in.theta = 0.02;
  in.max_inner_iters = 7;
  in.flip_pass = false;
  in.shift_windows = true;
  in.incremental = false;
  // bh = 0 is the "derive from bw" default and must survive the wire.
  in.sequence = {dist::WireParamStep{20, 0, 4, 1},
                 dist::WireParamStep{12, 2, 3, 0}};
  in.params.alpha = 42.5;
  in.mip.max_nodes = 99;
  in.design = {0xde, 0xad, 0xbe, 0xef, 0x01};

  dist::WireSubmitJob out = dist::decode_submit_job(dist::encode_submit_job(in));
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.name, in.name);
  EXPECT_EQ(out.deadline_sec, in.deadline_sec);
  EXPECT_EQ(out.theta, in.theta);
  EXPECT_EQ(out.max_inner_iters, in.max_inner_iters);
  EXPECT_EQ(out.flip_pass, in.flip_pass);
  EXPECT_EQ(out.shift_windows, in.shift_windows);
  EXPECT_EQ(out.incremental, in.incremental);
  ASSERT_EQ(out.sequence.size(), in.sequence.size());
  for (std::size_t i = 0; i < in.sequence.size(); ++i) {
    EXPECT_EQ(out.sequence[i].bw, in.sequence[i].bw);
    EXPECT_EQ(out.sequence[i].bh, in.sequence[i].bh);
    EXPECT_EQ(out.sequence[i].lx, in.sequence[i].lx);
    EXPECT_EQ(out.sequence[i].ly, in.sequence[i].ly);
  }
  EXPECT_EQ(out.params.alpha, in.params.alpha);
  EXPECT_EQ(out.mip.max_nodes, in.mip.max_nodes);
  EXPECT_EQ(out.design, in.design);
}

TEST_F(SvcWire, SubmitJobRejectsBadSequenceAndTruncatedDesign) {
  dist::WireSubmitJob bad;
  bad.tenant = "t";
  bad.sequence = {dist::WireParamStep{0, 2, 1, 1}};  // bw must be positive
  bad.design = {1, 2, 3};
  EXPECT_THROW(dist::decode_submit_job(dist::encode_submit_job(bad)),
               dist::WireError);

  dist::WireSubmitJob ok;
  ok.tenant = "t";
  ok.sequence = {dist::WireParamStep{8, 2, 1, 1}};
  ok.design = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> payload = dist::encode_submit_job(ok);
  payload.pop_back();  // embedded design length no longer matches
  EXPECT_THROW(dist::decode_submit_job(payload), dist::WireError);
}

TEST_F(SvcWire, JobQueryStatusAndResultRoundTrip) {
  dist::WireJobQuery q;
  q.job_id = 0x1122334455667788ull;
  EXPECT_EQ(dist::decode_job_query(dist::encode_job_query(q)).job_id,
            q.job_id);

  dist::WireJobStatus st;
  st.job_id = 7;
  st.state = dist::JobState::kRunning;
  st.accepted = false;
  st.reason = "tenant 'x' quota exhausted";
  st.objective = -3.25;
  st.windows_done = 19;
  dist::WireJobStatus st2 = dist::decode_job_status(dist::encode_job_status(st));
  EXPECT_EQ(st2.job_id, st.job_id);
  EXPECT_EQ(st2.state, st.state);
  EXPECT_EQ(st2.accepted, st.accepted);
  EXPECT_EQ(st2.reason, st.reason);
  EXPECT_EQ(st2.objective, st.objective);
  EXPECT_EQ(st2.windows_done, st.windows_done);

  dist::WireJobResult r;
  r.job_id = 9;
  r.state = dist::JobState::kDone;
  r.objective = 123.5;
  r.windows = 40;
  r.solved = 33;
  r.outer_iterations = 4;
  r.seconds = 1.75;
  r.placements = {Placement{3, 1, true}, Placement{0, 2, false}};
  dist::WireJobResult r2 = dist::decode_job_result(dist::encode_job_result(r));
  EXPECT_EQ(r2.job_id, r.job_id);
  EXPECT_EQ(r2.state, r.state);
  EXPECT_EQ(r2.objective, r.objective);
  EXPECT_EQ(r2.windows, r.windows);
  EXPECT_EQ(r2.solved, r.solved);
  EXPECT_EQ(r2.outer_iterations, r.outer_iterations);
  EXPECT_EQ(r2.seconds, r.seconds);
  ASSERT_EQ(r2.placements.size(), r.placements.size());
  EXPECT_EQ(r2.placements[0], r.placements[0]);
  EXPECT_EQ(r2.placements[1], r.placements[1]);
}

TEST_F(SvcWire, NonDoneResultMustNotCarryPlacements) {
  dist::WireJobResult r;
  r.job_id = 1;
  r.state = dist::JobState::kFailed;
  r.error = "solver exploded";
  r.placements = {Placement{1, 1, false}};
  EXPECT_THROW(dist::decode_job_result(dist::encode_job_result(r)),
               dist::WireError);
}

TEST_F(SvcWire, JobStateNamesAndTerminality) {
  using dist::JobState;
  EXPECT_STREQ(dist::to_string(JobState::kQueued), "queued");
  EXPECT_STREQ(dist::to_string(JobState::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_FALSE(dist::job_state_terminal(JobState::kQueued));
  EXPECT_FALSE(dist::job_state_terminal(JobState::kAdmitted));
  EXPECT_FALSE(dist::job_state_terminal(JobState::kRunning));
  EXPECT_TRUE(dist::job_state_terminal(JobState::kDone));
  EXPECT_TRUE(dist::job_state_terminal(JobState::kFailed));
  EXPECT_TRUE(dist::job_state_terminal(JobState::kCancelled));
  EXPECT_TRUE(dist::job_state_terminal(JobState::kDeadlineExceeded));
}

// ---------------------------------------------------------------------
// Deficit round-robin fair share.

TEST_F(SvcScheduler, RejectsBadConfigAndUnknownTenants) {
  EXPECT_THROW(FairScheduler({TenantConfig{"a", 0.0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(
      FairScheduler({TenantConfig{"a", 1, 1}, TenantConfig{"a", 2, 1}}),
      std::invalid_argument);
  FairScheduler s({TenantConfig{"a", 1, 1}});
  EXPECT_THROW(s.acquire("nope", 1), std::invalid_argument);
  EXPECT_THROW(s.credit("nope", 1), std::invalid_argument);
}

TEST_F(SvcScheduler, GrantsImmediatelyWhenIdleAndCreditsAccumulate) {
  FairScheduler s({TenantConfig{"a", 1, 1}});
  s.acquire("a", 5);  // idle fleet: must not block
  s.release();
  s.credit("a", 7);
  EXPECT_EQ(s.served_windows("a"), 12);
  EXPECT_EQ(s.served_windows("ghost"), 0);
}

TEST_F(SvcScheduler, DeficitRoundRobinTracksWeightsExactly) {
  // Weights 1:3, eight equal-cost batches queued while the fleet is held.
  // With a full backlog DRR is fully deterministic: the grant sequence by
  // tenant must be b,b,a,b,b,a,a,a — i.e. exactly 3:1 in every prefix
  // window of the saturated phase.
  FairScheduler s({TenantConfig{"a", 1.0, 1}, TenantConfig{"b", 3.0, 1}});
  s.acquire("a", 1);  // hold the fleet so the full backlog forms

  std::mutex order_mu;
  std::vector<std::string> order;
  std::atomic<int> started{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    for (const char* t : {"a", "b"}) {
      waiters.emplace_back([&, t] {
        started.fetch_add(1);
        s.acquire(t, 10);
        {
          std::lock_guard<std::mutex> lock(order_mu);
          order.emplace_back(t);
        }
        s.release();
      });
    }
  }
  while (started.load() < 8) usleep(1000);
  usleep(50'000);  // let the last acquire actually enqueue
  s.release();     // open the floodgate
  for (std::thread& t : waiters) t.join();

  ASSERT_EQ(order.size(), 8u);
  const std::vector<std::string> expected = {"b", "b", "a", "b",
                                             "b", "a", "a", "a"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(s.served_windows("a"), 41);  // 4 x 10 + the cost-1 holder
  EXPECT_EQ(s.served_windows("b"), 40);

  std::vector<std::pair<std::string, long>> snap = s.served_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");  // registration order
  EXPECT_EQ(snap[1].first, "b");
}

// ---------------------------------------------------------------------
// Admission control.

TEST_F(SvcAdmission, QuotaAndQueueBoundsRejectWithTypedReasons) {
  AdmissionController adm(3, {TenantConfig{"a", 1, 2}, TenantConfig{"b", 1, 9}});

  std::optional<std::string> r = adm.try_admit("ghost");
  ASSERT_TRUE(r.has_value());
  EXPECT_NE(r->find("unknown tenant"), std::string::npos);

  EXPECT_FALSE(adm.try_admit("a").has_value());
  EXPECT_FALSE(adm.try_admit("a").has_value());
  r = adm.try_admit("a");  // quota 2 exhausted
  ASSERT_TRUE(r.has_value());
  EXPECT_NE(r->find("quota"), std::string::npos);
  EXPECT_EQ(adm.queue_depth(), 2);

  EXPECT_FALSE(adm.try_admit("b").has_value());  // queue now full (3)
  r = adm.try_admit("b");
  ASSERT_TRUE(r.has_value());
  EXPECT_NE(r->find("queue full"), std::string::npos);

  // A started job frees its queue slot but still holds its quota slot.
  adm.on_started("a");
  EXPECT_EQ(adm.queue_depth(), 2);
  EXPECT_TRUE(adm.try_admit("a").has_value()) << "quota must still bind";
  // Terminal releases the quota slot; a queued-terminal also frees the
  // queue slot.
  adm.on_terminal("a", /*was_queued=*/false);
  EXPECT_FALSE(adm.try_admit("a").has_value());
  adm.on_terminal("a", /*was_queued=*/true);
  adm.on_terminal("a", /*was_queued=*/true);
  EXPECT_EQ(adm.queue_depth(), 1);
}

TEST_F(SvcAdmission, InvalidConfigThrows) {
  EXPECT_THROW(AdmissionController(0, {TenantConfig{"a", 1, 1}}),
               std::invalid_argument);
  EXPECT_THROW(AdmissionController(4, {TenantConfig{"a", 1, 0}}),
               std::invalid_argument);
  EXPECT_THROW(
      AdmissionController(4, {TenantConfig{"a", 1, 1}, TenantConfig{"a", 1, 1}}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------
// JobManager lifecycle (threads backend: no fleet needed).

JobManagerOptions threads_manager(std::vector<TenantConfig> tenants,
                                  int max_running = 1) {
  JobManagerOptions o;
  o.tenants = std::move(tenants);
  o.max_running = max_running;
  o.max_queue_depth = 16;
  o.deadline_poll_sec = 0.005;
  return o;
}

TEST_F(SvcJobManager, RunsToDoneBitIdenticalToStandalone) {
  JobManager mgr(threads_manager({TenantConfig{"t", 1, 4}}));
  Design reference = placed_design(5);
  JobSpec spec = fast_spec("t", duplicate(reference));
  VM1OptOptions ref_opts = standalone_opts(spec);

  JobManager::Submission sub = mgr.submit(std::move(spec));
  ASSERT_TRUE(sub.accepted) << sub.reason;
  ASSERT_TRUE(mgr.wait_all_terminal(120.0));

  std::optional<JobOutcome> out = mgr.result(sub.id);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->state, dist::JobState::kDone);
  EXPECT_GT(out->windows, 0);

  VM1OptStats ref = vm1opt(reference, ref_opts);
  EXPECT_EQ(out->objective, ref.final.value);
  ASSERT_EQ(out->placements.size(), reference.placements().size());
  for (std::size_t i = 0; i < out->placements.size(); ++i) {
    EXPECT_EQ(out->placements[i], reference.placements()[i]) << "cell " << i;
  }
  // Accounting: the job's windows are the tenant's served windows.
  EXPECT_EQ(mgr.served_windows("t"), out->windows);
}

TEST_F(SvcJobManager, RejectsBadSubmissions) {
  JobManager mgr(threads_manager({TenantConfig{"t", 1, 1}}));

  JobSpec no_design;
  no_design.tenant = "t";
  JobManager::Submission sub = mgr.submit(std::move(no_design));
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.reason, "missing design");

  JobSpec unknown = fast_spec("ghost", placed_design(6));
  sub = mgr.submit(std::move(unknown));
  EXPECT_FALSE(sub.accepted);
  EXPECT_NE(sub.reason.find("unknown tenant"), std::string::npos);

  JobSpec bad_seq = fast_spec("t", placed_design(6));
  bad_seq.sequence.clear();
  sub = mgr.submit(std::move(bad_seq));
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.reason, "empty parameter sequence");

  JobSpec bad_deadline = fast_spec("t", placed_design(6));
  bad_deadline.deadline_sec = -1;
  sub = mgr.submit(std::move(bad_deadline));
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.reason, "negative deadline");

  // Solver options come from the client's frame and are validated at
  // admission; the rejection names the bad field.
  JobSpec bad_tol = fast_spec("t", placed_design(6));
  bad_tol.mip.lp_options.tol = -1;
  sub = mgr.submit(std::move(bad_tol));
  EXPECT_FALSE(sub.accepted);
  EXPECT_NE(sub.reason.find("lp_options.tol"), std::string::npos)
      << sub.reason;

  JobSpec nan_tol = fast_spec("t", placed_design(6));
  nan_tol.mip.lp_options.tol = std::nan("");
  sub = mgr.submit(std::move(nan_tol));
  EXPECT_FALSE(sub.accepted);
  EXPECT_NE(sub.reason.find("lp_options.tol"), std::string::npos)
      << sub.reason;

  JobSpec nan_limit = fast_spec("t", placed_design(6));
  nan_limit.mip.time_limit_sec = std::nan("");
  sub = mgr.submit(std::move(nan_limit));
  EXPECT_FALSE(sub.accepted);
  EXPECT_NE(sub.reason.find("time_limit_sec"), std::string::npos)
      << sub.reason;

  EXPECT_FALSE(mgr.status(42).has_value());
  EXPECT_FALSE(mgr.result(42).has_value());
  EXPECT_FALSE(mgr.cancel(42));
}

TEST_F(SvcJobManager, CancelQueuedIsImmediateCancelRunningStopsAtBoundary) {
  // max_running = 1: the first job occupies the executor, the second waits
  // in kQueued where cancel must take effect without ever running it.
  JobManager mgr(threads_manager({TenantConfig{"t", 1, 8}}));
  JobSpec big = fast_spec("t", placed_design(7, /*scale=*/0.6));
  big.max_inner_iters = 4;
  big.sequence = {ParamSet{16, 2, 2, 1}, ParamSet{12, 2, 2, 1},
                  ParamSet{20, 2, 3, 1}};
  JobManager::Submission running = mgr.submit(std::move(big));
  ASSERT_TRUE(running.accepted);
  JobManager::Submission queued =
      mgr.submit(fast_spec("t", placed_design(8)));
  ASSERT_TRUE(queued.accepted);

  EXPECT_TRUE(mgr.cancel(queued.id));
  std::optional<JobInfo> qi = mgr.status(queued.id);
  ASSERT_TRUE(qi.has_value());
  EXPECT_EQ(qi->state, dist::JobState::kCancelled);
  EXPECT_EQ(qi->reason, "cancelled by client");

  EXPECT_TRUE(mgr.cancel(running.id));
  ASSERT_TRUE(mgr.wait_all_terminal(120.0));
  std::optional<JobInfo> ri = mgr.status(running.id);
  ASSERT_TRUE(ri.has_value());
  // The running job either saw the token mid-run (kCancelled) or was
  // already past its last window — but it must be terminal exactly once.
  EXPECT_TRUE(dist::job_state_terminal(ri->state));
  EXPECT_TRUE(mgr.cancel(running.id)) << "cancelling a terminal job is a no-op";
}

TEST_F(SvcJobManager, DeadlinesFireQueuedAndMidRun) {
  JobManager mgr(threads_manager({TenantConfig{"t", 1, 8}}));

  // Occupy the single executor with a long job carrying a short deadline:
  // the watcher must trip its cancel token mid-run.
  JobSpec long_job = fast_spec("t", placed_design(9, /*scale=*/0.6));
  long_job.max_inner_iters = 6;
  long_job.sequence = {ParamSet{16, 2, 2, 1}, ParamSet{12, 2, 2, 1},
                       ParamSet{20, 2, 3, 1}, ParamSet{14, 2, 2, 0}};
  long_job.deadline_sec = 0.05;
  JobManager::Submission running = mgr.submit(std::move(long_job));
  ASSERT_TRUE(running.accepted);

  // A queued job whose deadline expires before it ever starts.
  JobSpec queued_job = fast_spec("t", placed_design(10));
  queued_job.deadline_sec = 0.01;
  JobManager::Submission queued = mgr.submit(std::move(queued_job));
  ASSERT_TRUE(queued.accepted);

  ASSERT_TRUE(mgr.wait_all_terminal(120.0));
  std::optional<JobInfo> ri = mgr.status(running.id);
  std::optional<JobInfo> qi = mgr.status(queued.id);
  ASSERT_TRUE(ri.has_value());
  ASSERT_TRUE(qi.has_value());
  EXPECT_EQ(ri->state, dist::JobState::kDeadlineExceeded);
  EXPECT_EQ(ri->reason, "deadline exceeded mid-run");
  EXPECT_EQ(qi->state, dist::JobState::kDeadlineExceeded);
  EXPECT_EQ(qi->reason, "deadline expired while queued");
}

TEST_F(SvcJobManager, DrainCancelsQueuedFinishesRunningThenRejects) {
  JobManager mgr(threads_manager({TenantConfig{"t", 1, 8}}));
  JobManager::Submission running =
      mgr.submit(fast_spec("t", placed_design(11)));
  JobManager::Submission queued =
      mgr.submit(fast_spec("t", placed_design(12)));
  ASSERT_TRUE(running.accepted);
  ASSERT_TRUE(queued.accepted);

  mgr.drain(/*cancel_queued=*/true);

  std::optional<JobInfo> ri = mgr.status(running.id);
  std::optional<JobInfo> qi = mgr.status(queued.id);
  ASSERT_TRUE(ri.has_value());
  ASSERT_TRUE(qi.has_value());
  EXPECT_TRUE(dist::job_state_terminal(ri->state));
  // The queued job must not have run; either the drain or (rarely) the
  // executor-claim race decided it, but "cancelled by drain" is the
  // expected path when it never started.
  EXPECT_TRUE(dist::job_state_terminal(qi->state));

  JobManager::Submission late = mgr.submit(fast_spec("t", placed_design(13)));
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reason, "service draining");
}

TEST_F(SvcJobManager, KeepsOnlyTheNewestFinishedJobs) {
  JobManagerOptions bad = threads_manager({TenantConfig{"t", 1, 8}});
  bad.keep_finished = 0;
  EXPECT_THROW(JobManager{bad}, std::invalid_argument);

  // One executor and one tenant: the jobs run, and finish, in submission
  // order, so with two kept the first is the one dropped.
  JobManagerOptions o = threads_manager({TenantConfig{"t", 1, 8}});
  o.keep_finished = 2;
  JobManager mgr(o);
  std::vector<std::uint64_t> ids;
  std::vector<Design> references;
  for (std::uint64_t seed = 14; seed < 17; ++seed) {
    references.push_back(placed_design(seed));
    JobManager::Submission sub =
        mgr.submit(fast_spec("t", duplicate(references.back())));
    ASSERT_TRUE(sub.accepted) << sub.reason;
    ids.push_back(sub.id);
  }
  ASSERT_TRUE(mgr.wait_all_terminal(120.0));

  EXPECT_FALSE(mgr.status(ids[0]).has_value());
  EXPECT_FALSE(mgr.result(ids[0]).has_value());
  EXPECT_FALSE(mgr.cancel(ids[0]));
  for (std::size_t k = 1; k < ids.size(); ++k) {
    std::optional<JobOutcome> out = mgr.result(ids[k]);
    ASSERT_TRUE(out.has_value()) << "job " << k;
    EXPECT_EQ(out->state, dist::JobState::kDone);
    Design& ref = references[k];
    vm1opt(ref, standalone_opts(fast_spec("t", duplicate(ref))));
    EXPECT_EQ(out->placements, ref.placements()) << "job " << k;
  }
}

// ---------------------------------------------------------------------
// TCP front-end: the full client protocol against a live Service.

struct TestClient {
  int fd = -1;
  std::vector<std::uint8_t> rbuf;

  ~TestClient() {
    if (fd >= 0) close(fd);
  }
  bool connect(int port, const std::string& secret) {
    dist::TcpConnectOptions copts;
    copts.secret = secret;
    fd = dist::tcp_attach("127.0.0.1", port, copts);
    return fd >= 0;
  }
  std::optional<dist::Frame> call(dist::MsgType type,
                                  std::vector<std::uint8_t> payload) {
    std::vector<std::uint8_t> frame =
        dist::encode_frame(type, std::move(payload));
    if (!subprocess::write_all(fd, frame.data(), frame.size())) {
      return std::nullopt;
    }
    std::uint8_t chunk[64 * 1024];
    std::optional<dist::Frame> reply;
    while (!(reply = dist::extract_frame(rbuf))) {
      long n = subprocess::read_some(fd, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      rbuf.insert(rbuf.end(), chunk, chunk + n);
    }
    return reply;
  }
};

struct ServiceHarness {
  JobManager manager;
  Service service;
  std::thread thread;

  explicit ServiceHarness(JobManagerOptions mo, const std::string& secret)
      : manager(std::move(mo)), service(make_opts(secret), &manager) {
    thread = std::thread([this] { service.serve(); });
  }
  ~ServiceHarness() {
    service.stop();
    thread.join();
  }
  static ServiceOptions make_opts(const std::string& secret) {
    ServiceOptions so;
    so.secret = secret;
    return so;
  }
};

TEST_F(SvcService, SubmitPollFetchCancelOverTcp) {
  const std::string secret = "svc-secret";
  ServiceHarness h(threads_manager({TenantConfig{"acme", 1, 4}}), secret);

  TestClient c;
  ASSERT_TRUE(c.connect(h.service.port(), secret));

  Design reference = placed_design(20);
  JobSpec ref_spec = fast_spec("acme", duplicate(reference));
  dist::WireSubmitJob sj;
  sj.tenant = "acme";
  sj.name = "e2e";
  sj.theta = ref_spec.theta;
  sj.max_inner_iters = ref_spec.max_inner_iters;
  sj.incremental = ref_spec.incremental;
  sj.sequence = {dist::WireParamStep{16, 2, 2, 1}};
  sj.params = ref_spec.params;
  sj.mip = ref_spec.mip;
  sj.design = dist::encode_design(reference);

  std::optional<dist::Frame> reply =
      c.call(dist::MsgType::kSubmitJob, dist::encode_submit_job(sj));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, dist::MsgType::kJobStatus);
  dist::WireJobStatus ack = dist::decode_job_status(reply->payload);
  ASSERT_TRUE(ack.accepted) << ack.reason;
  ASSERT_GT(ack.job_id, 0u);

  // Poll status until terminal.
  dist::WireJobQuery q;
  q.job_id = ack.job_id;
  for (;;) {
    reply = c.call(dist::MsgType::kJobStatus, dist::encode_job_query(q));
    ASSERT_TRUE(reply.has_value());
    dist::WireJobStatus st = dist::decode_job_status(reply->payload);
    ASSERT_TRUE(st.accepted);
    if (dist::job_state_terminal(st.state)) {
      EXPECT_EQ(st.state, dist::JobState::kDone) << st.reason;
      break;
    }
    usleep(20'000);
  }

  // Fetch the result and check it against the standalone run.
  reply = c.call(dist::MsgType::kJobResult, dist::encode_job_query(q));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, dist::MsgType::kJobResult);
  dist::WireJobResult res = dist::decode_job_result(reply->payload);
  EXPECT_EQ(res.state, dist::JobState::kDone);
  VM1OptStats ref = vm1opt(reference, standalone_opts(ref_spec));
  EXPECT_EQ(res.objective, ref.final.value);
  ASSERT_EQ(res.placements.size(), reference.placements().size());
  for (std::size_t i = 0; i < res.placements.size(); ++i) {
    EXPECT_EQ(res.placements[i], reference.placements()[i]) << "cell " << i;
  }

  // Unknown ids answer accepted=false — on status, result, and cancel.
  q.job_id = 4242;
  for (dist::MsgType t : {dist::MsgType::kJobStatus, dist::MsgType::kJobResult,
                          dist::MsgType::kCancelJob}) {
    reply = c.call(t, dist::encode_job_query(q));
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, dist::MsgType::kJobStatus);
    dist::WireJobStatus st = dist::decode_job_status(reply->payload);
    EXPECT_FALSE(st.accepted);
    EXPECT_NE(st.reason.find("unknown job"), std::string::npos);
  }

  // Rejections are per-job, not connection errors.
  sj.tenant = "ghost";
  reply = c.call(dist::MsgType::kSubmitJob, dist::encode_submit_job(sj));
  ASSERT_TRUE(reply.has_value());
  dist::WireJobStatus rej = dist::decode_job_status(reply->payload);
  EXPECT_FALSE(rej.accepted);
  EXPECT_NE(rej.reason.find("unknown tenant"), std::string::npos);
}

TEST_F(SvcService, ProtocolErrorDropsTheClientNotTheService) {
  const std::string secret = "svc-secret-2";
  ServiceHarness h(threads_manager({TenantConfig{"acme", 1, 4}}), secret);

  // A worker-protocol frame is a protocol error on the service listener:
  // the connection must be closed...
  TestClient bad;
  ASSERT_TRUE(bad.connect(h.service.port(), secret));
  dist::WirePing ping;
  ping.seq = 1;
  std::optional<dist::Frame> reply =
      bad.call(dist::MsgType::kPing, dist::encode_ping(ping));
  EXPECT_FALSE(reply.has_value()) << "service must hang up on bad frames";

  // ...while a fresh client is still served.
  TestClient good;
  ASSERT_TRUE(good.connect(h.service.port(), secret));
  dist::WireJobQuery q;
  q.job_id = 1;
  reply = good.call(dist::MsgType::kJobStatus, dist::encode_job_query(q));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, dist::MsgType::kJobStatus);
}

TEST_F(SvcService, WrongSecretNeverGetsAnAnswer) {
  // tcp_attach fires its HMAC hello and returns without waiting for a
  // verdict, so the rejection surfaces as a hang-up on the first call.
  ServiceHarness h(threads_manager({TenantConfig{"acme", 1, 4}}), "right");
  TestClient bad;
  ASSERT_TRUE(bad.connect(h.service.port(), "wrong"));
  dist::WireJobQuery q;
  q.job_id = 1;
  EXPECT_FALSE(bad.call(dist::MsgType::kJobStatus, dist::encode_job_query(q)))
      << "a client with the wrong secret must never reach the job API";

  TestClient good;
  ASSERT_TRUE(good.connect(h.service.port(), "right"));
  EXPECT_TRUE(good.call(dist::MsgType::kJobStatus, dist::encode_job_query(q)));
}

// ---------------------------------------------------------------------
// Acceptance soaks: three tenants sharing one worker fleet.

struct SoakJob {
  std::uint64_t id = 0;
  std::string tenant;
  std::uint64_t seed = 0;
  JobSpec reference;  ///< same spec, duplicate design, for bit-identity
};

JobSpec soak_spec(const std::string& tenant, std::uint64_t seed) {
  JobSpec s = fast_spec(tenant, placed_design(seed, kSoakScale));
  s.sequence = {ParamSet{16, 2, 2, 1}, ParamSet{12, 2, 2, 1}};
  s.max_inner_iters = 2;
  return s;
}

/// Clones a spec (specs are move-only because of the Design).
JobSpec clone_spec(const JobSpec& s) {
  JobSpec c;
  c.tenant = s.tenant;
  c.name = s.name;
  c.deadline_sec = s.deadline_sec;
  c.design = duplicate(*s.design);
  c.sequence = s.sequence;
  c.theta = s.theta;
  c.max_inner_iters = s.max_inner_iters;
  c.flip_pass = s.flip_pass;
  c.shift_windows = s.shift_windows;
  c.incremental = s.incremental;
  c.params = s.params;
  c.mip = s.mip;
  return c;
}

TEST_F(SvcSoak, ThreeTenantsFairSharesAllTerminalBitIdentical) {
  const std::vector<TenantConfig> tenants = {TenantConfig{"bronze", 1.0, 8},
                                             TenantConfig{"silver", 2.0, 8},
                                             TenantConfig{"gold", 3.0, 8}};
  // No solve cache: the fairness census needs the fleet to be the
  // bottleneck, and a cache exists precisely to stop repeat windows from
  // loading the fleet — cache-served batches drain demand below each
  // tenant's entitlement and DRR correctly lets the shares flatten.
  // (Cache correctness under a shared fleet is test_cache's job.)
  dist::Coordinator coord(dist::CoordinatorOptions{});
  JobManagerOptions mo;
  mo.tenants = tenants;
  // Two runners per tenant: a tenant with only ONE job in flight has no
  // scheduler waiter during its apply/build gap between batches, so its
  // feasible share is pipeline-capped regardless of weight. True
  // saturation — the thing the fair-share guarantee is about — needs the
  // backlog to live in the scheduler, not in the job queue.
  mo.max_running = 6;
  mo.max_queue_depth = 64;
  mo.coordinator = &coord;
  mo.deadline_poll_sec = 0.005;
  JobManager mgr(mo);

  // The fairness core: identical workloads per tenant, saturating the
  // fleet (one runner per tenant at all times, plus a queued backlog).
  std::vector<SoakJob> jobs;
  for (int j = 0; j < kSoakJobsPerTenant; ++j) {
    for (const TenantConfig& t : tenants) {
      SoakJob sj;
      sj.tenant = t.name;
      sj.seed = 100 + static_cast<std::uint64_t>(j);
      sj.reference = soak_spec(t.name, sj.seed);
      JobManager::Submission sub =
          mgr.submit(clone_spec(sj.reference));
      ASSERT_TRUE(sub.accepted) << sub.reason;
      sj.id = sub.id;
      jobs.push_back(std::move(sj));
    }
  }

  // Mixed-lifecycle extras: a queued job cancelled by the client, a queued
  // job whose deadline expires, and a quota rejection.
  JobSpec cancel_me = soak_spec("silver", 300);
  JobManager::Submission cancel_sub = mgr.submit(std::move(cancel_me));
  ASSERT_TRUE(cancel_sub.accepted);
  JobSpec expire_me = soak_spec("bronze", 301);
  expire_me.deadline_sec = 0.01;
  JobManager::Submission expire_sub = mgr.submit(std::move(expire_me));
  ASSERT_TRUE(expire_sub.accepted);
  for (int i = 0; i < 8; ++i) {
    JobManager::Submission s = mgr.submit(soak_spec("gold", 310 + i));
    if (!s.accepted) {
      EXPECT_NE(s.reason.find("quota"), std::string::npos);
      break;
    }
    ASSERT_LT(i, 7) << "gold quota (8) never bound";
  }
  EXPECT_TRUE(mgr.cancel(cancel_sub.id));

  // Fairness sampling: between the first instant every tenant is warmed
  // up (t0) and the last instant every tenant still has backlog (t1), the
  // served-window deltas must split by weight (DRR guarantee).
  std::map<std::string, long> t0, t1;
  bool have_t0 = false, have_t1 = false;
  std::map<std::string, std::vector<std::uint64_t>> per_tenant;
  for (const SoakJob& sj : jobs) per_tenant[sj.tenant].push_back(sj.id);
  while (!mgr.wait_all_terminal(0.004)) {
    std::map<std::string, long> now;
    bool warmed = true, backlogged = true;
    for (const TenantConfig& t : tenants) {
      now[t.name] = mgr.served_windows(t.name);
      if (now[t.name] < 3) warmed = false;
      bool alive = false;
      for (std::uint64_t id : per_tenant[t.name]) {
        std::optional<JobInfo> info = mgr.status(id);
        if (info && !dist::job_state_terminal(info->state)) alive = true;
      }
      if (!alive) backlogged = false;
    }
    if (warmed && backlogged) {
      if (!have_t0) {
        t0 = now;
        have_t0 = true;
      } else {
        t1 = now;
        have_t1 = true;
      }
    }
  }

  // Every job ended in exactly one terminal state, consistently visible
  // through both the status and the result surface.
  long done_jobs = 0;
  for (const SoakJob& sj : jobs) {
    std::optional<JobInfo> info = mgr.status(sj.id);
    std::optional<JobOutcome> out = mgr.result(sj.id);
    ASSERT_TRUE(info.has_value());
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(dist::job_state_terminal(info->state)) << "job " << sj.id;
    EXPECT_EQ(info->state, out->state);
    if (out->state == dist::JobState::kDone) ++done_jobs;
  }
  EXPECT_EQ(done_jobs, static_cast<long>(jobs.size()))
      << "a clean soak must complete every fairness-core job";
  std::optional<JobInfo> ci = mgr.status(cancel_sub.id);
  ASSERT_TRUE(ci.has_value());
  EXPECT_TRUE(dist::job_state_terminal(ci->state));
  std::optional<JobInfo> ei = mgr.status(expire_sub.id);
  ASSERT_TRUE(ei.has_value());
  EXPECT_TRUE(dist::job_state_terminal(ei->state));

  // Bit-identity: every completed job equals its standalone threads run.
  for (const SoakJob& sj : jobs) {
    std::optional<JobOutcome> out = mgr.result(sj.id);
    ASSERT_TRUE(out.has_value());
    if (out->state != dist::JobState::kDone) continue;
    Design ref_design = duplicate(*sj.reference.design);
    VM1OptStats ref = vm1opt(ref_design, standalone_opts(sj.reference));
    EXPECT_EQ(out->objective, ref.final.value)
        << sj.tenant << " job " << sj.id;
    ASSERT_EQ(out->placements.size(), ref_design.placements().size());
    for (std::size_t i = 0; i < out->placements.size(); ++i) {
      ASSERT_EQ(out->placements[i], ref_design.placements()[i])
          << sj.tenant << " job " << sj.id << " cell " << i;
    }
  }

  // Fair shares: over the saturated phase the served-window deltas track
  // the 1:2:3 weights within the 10-point acceptance tolerance.
  ASSERT_TRUE(have_t0 && have_t1)
      << "the soak never reached a saturated sampling window";
  double total = 0;
  std::map<std::string, double> delta;
  for (const TenantConfig& t : tenants) {
    delta[t.name] = static_cast<double>(t1[t.name] - t0[t.name]);
    total += delta[t.name];
  }
  ASSERT_GE(total, 24.0) << "saturated phase too short to judge fairness";
  const double wsum = 6.0;
  for (const TenantConfig& t : tenants) {
    double share = delta[t.name] / total;
    double expect = t.weight / wsum;
    EXPECT_NEAR(share, expect, 0.10)
        << t.name << " served " << delta[t.name] << " of " << total
        << " windows in the saturated phase";
  }
}

TEST_F(SvcSoak, QuarterStormSoakStaysGreenAndBitIdentical) {
  // The same multi-tenant soak under the 25% seven-site transport storm:
  // supervision absorbs every drill, every job still reaches exactly one
  // terminal state, and completed jobs stay bit-identical to standalone
  // runs under the same fault config (signatures hash it; the dist sites
  // never fire on the threads reference).
  fault::Config fc = fault::parse_spec(
      "worker_kill=0.25,reply_drop=0.25,reply_corrupt=0.25,"
      "connect_timeout=0.25,connect_refused=0.25,partition=0.25,"
      "slow_loris=0.25,seed=23");
  fault::set_config(fc);

  const std::vector<TenantConfig> tenants = {TenantConfig{"bronze", 1.0, 4},
                                             TenantConfig{"silver", 2.0, 4},
                                             TenantConfig{"gold", 3.0, 4}};
  dist::CoordinatorOptions co;
  co.request_timeout_sec = 0.75;
  co.quarantine_base_sec = 0.2;
  dist::Coordinator coord(co);
  JobManagerOptions mo;
  mo.tenants = tenants;
  mo.max_running = 3;
  mo.coordinator = &coord;
  mo.deadline_poll_sec = 0.005;
  JobManager mgr(mo);

  std::vector<SoakJob> jobs;
  for (int j = 0; j < 2; ++j) {
    for (const TenantConfig& t : tenants) {
      SoakJob sj;
      sj.tenant = t.name;
      sj.seed = 200 + static_cast<std::uint64_t>(j);
      sj.reference = soak_spec(t.name, sj.seed);
      // Short solver limit: never binds on these windows, but keeps the
      // reply-drop deadline (and so the whole storm) fast.
      sj.reference.mip.time_limit_sec = 0.5;
      sj.reference.max_inner_iters = 1;
      JobManager::Submission sub = mgr.submit(clone_spec(sj.reference));
      ASSERT_TRUE(sub.accepted) << sub.reason;
      sj.id = sub.id;
      jobs.push_back(std::move(sj));
    }
  }

  ASSERT_TRUE(mgr.wait_all_terminal(240.0));

  for (const SoakJob& sj : jobs) {
    std::optional<JobOutcome> out = mgr.result(sj.id);
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(dist::job_state_terminal(out->state)) << "job " << sj.id;
    ASSERT_EQ(out->state, dist::JobState::kDone)
        << "the storm must be absorbed, not surfaced: " << out->error;
    fault::set_config(fc);  // reference signatures hash the same config
    Design ref_design = duplicate(*sj.reference.design);
    VM1OptStats ref = vm1opt(ref_design, standalone_opts(sj.reference));
    EXPECT_EQ(out->objective, ref.final.value)
        << sj.tenant << " job " << sj.id;
    ASSERT_EQ(out->placements.size(), ref_design.placements().size());
    for (std::size_t i = 0; i < out->placements.size(); ++i) {
      ASSERT_EQ(out->placements[i], ref_design.placements()[i])
          << sj.tenant << " job " << sj.id << " cell " << i;
    }
  }
}

}  // namespace
}  // namespace vm1::svc
