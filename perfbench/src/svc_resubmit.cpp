// svc_resubmit: the placement service as vm1_serve runs it — Service on an
// ephemeral loopback port, a 2-worker socketpair fleet at the default
// coalesce = 1, and a persistent solve store — except that the JobManager
// runs one job at a time (see kMaxRunning). Three closed-loop tenants
// (gold:3, silver:2, bronze:1) drive it, each one client connection
// speaking the frames vm1_submit sends.
//
// Set-up solves one aes / ClosedM1 design at scale 1.0 (1,120 instances)
// through the service; the tenants then resubmit it unchanged, as teams
// sharing a block would. The store serves every window and the fleet gets
// no request, so the load falls on the cache read path, the
// signature/replay path in core, the TCP front-end and admission. The
// set-up solve is where the fleet works; the dist per-layer metrics come
// from it.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "cache/solve_cache.h"
#include "cache/store.h"
#include "core/vm1opt.h"
#include "design/legality.h"
#include "dist/coordinator.h"
#include "dist/tcp.h"
#include "dist/wire.h"
#include "place/global_placer.h"
#include "place/hpwl.h"
#include "place/legalizer.h"
#include "svc/service.h"
#include "util/subprocess.h"

namespace vm1bench {

namespace {

using namespace vm1;

constexpr const char* kSecret = "vm1bench-loopback";
const svc::TenantConfig kTenants[] = {
    {"gold", 3.0, 4}, {"silver", 2.0, 4}, {"bronze", 1.0, 4}};
constexpr int kNumTenants = 3;
/// vm1_serve runs two jobs at a time. Two running jobs hand the fleet gate
/// to each other at every window batch, even when the store serves every
/// window, so each job becomes a chain of cross-thread wake-ups: on a
/// 4-vCPU guest, job p50 doubled (25 -> 51 ms) when the hypervisor stole
/// 15-20% of the host, where one job at a time moved by under a tenth.
constexpr int kMaxRunning = 1;
/// Set-ups per run (each on a fresh store, priming solve included); the
/// median is reported.
constexpr int kSetupRepeats = 5;
/// Status poll interval: a job's latency is ~30 ms, so vm1_submit's 100 ms
/// would hide it.
constexpr double kPollSec = 0.001;

/// The job's frame: the design plus the EXPERIMENTS.md operating point
/// (two metaheuristic iterations, theta = 1%, U = {(20,4,1)}, alpha =
/// 1200 nm) at the optimizer's default node limits, with wall-clock limits
/// off so node limits bind.
dist::WireSubmitJob make_submit(const Design& d, const std::string& tenant,
                                int max_nodes) {
  dist::WireSubmitJob sj;
  sj.tenant = tenant;
  sj.name = "aes";
  sj.max_inner_iters = 2;
  sj.sequence = {dist::WireParamStep{20, 0, 4, 1}};
  sj.params.alpha = paper_alpha(1200);
  sj.params.epsilon = 0;
  sj.mip = VM1OptOptions::default_mip();
  sj.mip.time_limit_sec = 3600;
  sj.mip.lp_options.time_limit_sec = 0;
  if (max_nodes > 0) sj.mip.max_nodes = max_nodes;
  sj.design = dist::encode_design(d);
  return sj;
}

/// Client-side design preparation, as vm1_submit does it: generate,
/// global-place, legalize.
Design make_placed(std::uint64_t seed, Tracer& tracer, int parent) {
  DesignOptions dopt;
  dopt.seed = seed;
  std::optional<Design> d;
  {
    Scope s(tracer, "design.make", parent);
    d.emplace(make_design("aes", CellArch::kClosedM1, dopt));
  }
  {
    Scope s(tracer, "place.global", parent);
    GlobalPlaceOptions gp;
    gp.seed = seed | 1;
    global_place(*d, gp);
  }
  Scope s(tracer, "place.legalize", parent);
  legalize(*d);
  return std::move(*d);
}

/// The service stack of one run. Members are declared in the order they
/// are built; the serve thread is joined before any of them is destroyed.
class Stack {
 public:
  explicit Stack(const std::string& store_dir)
      : store_(store_options(store_dir)),
        cache_(&store_),
        fleet_(fleet_options()),
        manager_(manager_options(&fleet_, &cache_)),
        service_(service_options(), &manager_),
        serve_([this] { service_.serve(); }) {
    // Workers are otherwise spawned on first use; set-up brings them up.
    fleet_.connect_workers();
  }
  ~Stack() {
    service_.stop();
    serve_.join();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return service_.port(); }
  const cache::CacheStore& store() const { return store_; }

 private:
  static cache::StoreOptions store_options(const std::string& dir) {
    cache::StoreOptions so;
    so.dir = dir;
    so.epoch = cache::default_epoch();
    return so;
  }
  static dist::CoordinatorOptions fleet_options() {
    dist::CoordinatorOptions co;
    co.num_workers = 2;
    return co;
  }
  static svc::JobManagerOptions manager_options(dist::Coordinator* fleet,
                                                CacheBackend* cache) {
    svc::JobManagerOptions jo;
    jo.tenants.assign(std::begin(kTenants), std::end(kTenants));
    jo.max_running = kMaxRunning;
    jo.coordinator = fleet;
    jo.cache = cache;
    return jo;
  }
  static svc::ServiceOptions service_options() {
    svc::ServiceOptions so;
    so.secret = kSecret;
    return so;
  }

  cache::CacheStore store_;
  cache::PersistentCache cache_;
  dist::Coordinator fleet_;
  svc::JobManager manager_;
  svc::Service service_;
  std::thread serve_;
};

/// One authenticated client connection, speaking vm1_submit's frames.
class Client {
 public:
  explicit Client(int port) {
    dist::TcpConnectOptions co;
    co.secret = kSecret;
    fd_ = dist::tcp_attach("127.0.0.1", port, co);
  }
  ~Client() {
    if (fd_ < 0) return;
    std::vector<std::uint8_t> bye =
        dist::encode_frame(dist::MsgType::kShutdown, {});
    subprocess::write_all(fd_, bye.data(), bye.size());
    close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// One request/reply exchange; nullopt on any stream or protocol failure.
  std::optional<dist::Frame> call(dist::MsgType type,
                                  std::vector<std::uint8_t> payload) {
    std::vector<std::uint8_t> frame =
        dist::encode_frame(type, std::move(payload));
    if (!subprocess::write_all(fd_, frame.data(), frame.size())) {
      return std::nullopt;
    }
    std::optional<dist::Frame> reply;
    std::uint8_t chunk[64 * 1024];
    try {
      while (!(reply = dist::extract_frame(rbuf_))) {
        long n = subprocess::read_some(fd_, chunk, sizeof chunk);
        if (n <= 0) return std::nullopt;
        rbuf_.insert(rbuf_.end(), chunk, chunk + n);
      }
    } catch (const dist::WireError&) {
      return std::nullopt;
    }
    return reply;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> rbuf_;
};

/// One job as its client saw it.
struct JobRecord {
  std::uint64_t index = 0;  ///< tenant t's k-th job has index 3k + t
  bool done = false;        ///< completed and passed every output check
  std::string error;
  double submit = 0, acked = 0, started = 0, finished = 0, fetched = 0;
  long polls = 0;
  std::size_t submit_bytes = 0;
  dist::WireJobResult result;
};

/// Submits one job and waits for its result: submit, poll status until
/// terminal, fetch the result. Spans of the job share its index.
JobRecord run_job(Client& c, const dist::WireSubmitJob& sj,
                  std::uint64_t index, Tracer& tracer) {
  JobRecord r;
  r.index = index;
  std::vector<std::uint8_t> payload = dist::encode_submit_job(sj);
  r.submit_bytes = payload.size();
  r.submit = now_s();
  std::optional<dist::Frame> ack =
      c.call(dist::MsgType::kSubmitJob, std::move(payload));
  r.acked = now_s();
  if (!ack || ack->type != dist::MsgType::kJobStatus) {
    r.error = "submit failed";
    return r;
  }
  dist::WireJobStatus st = dist::decode_job_status(ack->payload);
  if (!st.accepted) {
    r.error = "rejected: " + st.reason;
    return r;
  }
  dist::WireJobQuery q;
  q.job_id = st.job_id;
  for (;;) {
    usleep(static_cast<useconds_t>(kPollSec * 1e6));
    std::optional<dist::Frame> reply =
        c.call(dist::MsgType::kJobStatus, dist::encode_job_query(q));
    double t = now_s();
    ++r.polls;
    if (!reply || reply->type != dist::MsgType::kJobStatus) {
      r.error = "status poll failed";
      return r;
    }
    dist::WireJobStatus s = dist::decode_job_status(reply->payload);
    if (s.state != dist::JobState::kQueued && r.started == 0) r.started = t;
    if (dist::job_state_terminal(s.state)) {
      r.finished = t;
      break;
    }
  }
  std::optional<dist::Frame> res =
      c.call(dist::MsgType::kJobResult, dist::encode_job_query(q));
  r.fetched = now_s();
  if (!res || res->type != dist::MsgType::kJobResult) {
    r.error = "result fetch failed";
    return r;
  }
  r.result = dist::decode_job_result(res->payload);
  if (r.result.state != dist::JobState::kDone) {
    r.error = std::string("job ended ") + dist::to_string(r.result.state);
    return r;
  }
  if (tracer.on()) {
    int root = tracer.add("svc.job", r.submit, r.fetched, -1, index);
    tracer.add("svc.submit", r.submit, r.acked, root, index);
    tracer.add("svc.queued", r.acked, r.started, root, index);
    tracer.add("svc.running", r.started, r.finished, root, index);
    tracer.add("svc.result", r.finished, r.fetched, root, index);
  }
  r.done = true;
  return r;
}

/// The frame's job run standalone on the threads backend, with the options
/// the service builds from the same frame; the service must match it bit
/// for bit.
std::vector<Placement> solve_standalone(const dist::WireSubmitJob& sj) {
  VM1OptOptions o;
  o.params = sj.params;
  o.sequence.clear();
  for (const dist::WireParamStep& st : sj.sequence) {
    o.sequence.push_back(ParamSet{st.bw, st.bh, st.lx, st.ly});
  }
  o.theta = sj.theta;
  o.max_inner_iters = sj.max_inner_iters;
  o.flip_pass = sj.flip_pass;
  o.shift_windows = sj.shift_windows;
  o.incremental = sj.incremental;
  o.mip = sj.mip;
  o.backend = DistBackend::kThreads;
  Design d = dist::decode_design(sj.design);
  vm1opt(d, o);
  return d.placements();
}

/// Applies a job's placements to the submitted design and checks them:
/// one entry per instance, legal, objective no worse than the input's and
/// equal to the one the service reported.
std::string check_result(const Design& input, const dist::WireSubmitJob& sj,
                         const dist::WireJobResult& res, Qor* q) {
  if (res.placements.size() !=
      static_cast<std::size_t>(input.netlist().num_instances())) {
    return "placement count mismatch";
  }
  Design out = dist::decode_design(sj.design);
  for (std::size_t i = 0; i < res.placements.size(); ++i) {
    out.set_placement(static_cast<int>(i), res.placements[i]);
  }
  if (!check_legality(out).empty()) return "illegal placement";
  ObjectiveBreakdown before = evaluate_objective(input, sj.params);
  ObjectiveBreakdown after = evaluate_objective(out, sj.params);
  if (after.value > before.value) return "objective got worse";
  if (after.value != res.objective) {
    return "reported objective is not the placement's";
  }
  q->align_before = before.alignments;
  q->align_after = after.alignments;
  q->hpwl_before = static_cast<double>(total_hpwl(input));
  q->hpwl_after = static_cast<double>(total_hpwl(out));
  q->obj_before = before.value;
  q->obj_after = after.value;
  return "";
}

}  // namespace

Run run_svc_resubmit(const Args& args, Tracer& tracer) {
  Run run;
  const std::string store_dir = args.out_dir + "/store";
  std::optional<Design> design;
  std::vector<dist::WireSubmitJob> frames;  // one per tenant
  dist::WireJobResult reference;
  Counts priming;  // the registry over the priming solve
  std::optional<Stack> stack;

  const std::size_t setup_failures = run.failures.size();
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    std::filesystem::remove_all(store_dir);
    double t0 = now_s();
    stack.emplace(store_dir);
    int root = tracer.open("setup");
    design.emplace(make_placed(args.seed, tracer, root));
    frames.clear();
    for (const svc::TenantConfig& t : kTenants) {
      frames.push_back(make_submit(*design, t.name, args.max_nodes));
    }
    Client c(stack->port());
    Tracer untraced(false);  // the priming job is set-up, not a measured job
    obs::reset_metrics();
    JobRecord r = run_job(c, frames[0], 0, untraced);
    Counts counts = snapshot_counts();
    tracer.close(root);
    run.setup_s.push_back(now_s() - t0);
    if (!r.done) {
      run.fail("priming solve: " + r.error);
      break;
    }
    if (i > 0 && (r.result.placements != reference.placements ||
                  work_counters(counts) != work_counters(priming))) {
      run.fail("priming solves differ between set-ups");
    }
    reference = std::move(r.result);
    priming = std::move(counts);
  }
  // Outside the timed set-up: the priming solve is checked, then re-solved
  // standalone.
  Qor q;
  if (run.failures.size() == setup_failures) {
    if (std::string err = check_result(*design, frames[0], reference, &q);
        !err.empty()) {
      run.fail("priming solve: " + err);
    }
    if (outcome_windows(priming) != static_cast<double>(reference.windows)) {
      run.fail("priming solve: window outcomes do not sum to the windows");
    }
    if (solve_standalone(frames[0]) != reference.placements) {
      run.fail("priming solve differs from standalone vm1opt");
    }
  }
  run.count_op(setup_failures);
  if (run.failures.size() > setup_failures) return run;
  run.qor = q;
  run.work["reference.windows"] = static_cast<double>(reference.windows);
  run.work["reference.solved"] = static_cast<double>(reference.solved);
  run.work["reference.objective"] = reference.objective;
  run.work["reference.align_after"] = static_cast<double>(q.align_after);
  for (const auto& [key, v] : work_counters(priming)) {
    run.work["priming." + key] = v;
  }

  // The closed loop: each tenant's client submits, waits for the result,
  // checks it, and submits again until the run's seconds are up (at least
  // one job each). Every result must equal the set-up solve bit for bit.
  obs::reset_metrics();
  std::mutex mu;
  std::vector<JobRecord> records;
  const double t_begin = now_s();
  std::vector<std::thread> clients;
  for (int t = 0; t < kNumTenants; ++t) {
    clients.emplace_back([&, t] {
      Client c(stack->port());
      if (!c.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        std::size_t before = run.failures.size();
        run.fail(std::string(kTenants[t].name) + ": cannot connect");
        run.count_op(before);
        return;
      }
      for (std::uint64_t k = 0; k == 0 || now_s() - t_begin < args.seconds;
           ++k) {
        std::uint64_t index = k * kNumTenants + static_cast<std::uint64_t>(t);
        JobRecord r = run_job(c, frames[t], index, tracer);
        std::string err = r.error;
        if (r.done && (r.result.placements != reference.placements ||
                       r.result.objective != reference.objective)) {
          err = "result differs from the set-up solve";
        }
        r.done = err.empty();
        std::lock_guard<std::mutex> lock(mu);
        std::size_t before = run.failures.size();
        if (!err.empty()) run.fail("job " + std::to_string(index) + ": " + err);
        run.count_op(before);
        records.push_back(std::move(r));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  Counts window = snapshot_counts();
  run.layer["cache.bytes"] = static_cast<double>(stack->store().bytes());
  stack.reset();

  // The window ends at the run's seconds, or at the first job of a client
  // still busy with it then. Throughput counts the jobs finished inside it:
  // the drain after it, with fewer clients active, is left out.
  double end = t_begin + args.seconds;
  for (const JobRecord& r : records) {
    if (r.index < kNumTenants) end = std::max(end, r.fetched);
  }
  run.window_s = end - t_begin;
  double n = 0, submit = 0, queued = 0, running = 0, result = 0, polls = 0,
         bytes = 0;
  for (const JobRecord& r : records) {
    if (!r.done) continue;
    run.latency_s.push_back(r.fetched - r.submit);
    if (r.fetched <= end) ++run.window_jobs;
    ++n;
    submit += r.acked - r.submit;
    queued += r.started - r.acked;
    running += r.finished - r.started;
    result += r.fetched - r.finished;
    polls += static_cast<double>(r.polls);
    bytes += static_cast<double>(r.submit_bytes);
  }
  // The store serves every window of every job, and nothing reaches the
  // fleet: no solve request, and no memo query either (a window a worker's
  // memo serves also counts as cached_remote, so that bucket cannot tell).
  {
    const std::size_t before = run.failures.size();
    const double windows = n * static_cast<double>(reference.windows);
    if (get(window, "cache.hits") != windows ||
        get(window, "cache.misses") > 0 || get(window, "dist.requests") > 0 ||
        get(window, "dist.bytes_sent") > 0) {
      run.fail("the store did not serve every window of every job");
    }
    if (outcome_windows(window) != windows) {
      run.fail("window outcomes do not sum to the jobs' windows");
    }
    run.count_op(before);
  }
  n = std::max(n, 1.0);
  // Per-job work of the window; a run repeats these exactly.
  for (const auto& [key, v] : work_counters(window)) {
    run.work["job." + key] = v / n;
  }
  run.layer["svc.submit_rtt_s"] = submit / n;
  run.layer["svc.queue_wait_s"] = queued / n;
  run.layer["svc.run_s"] = running / n;
  run.layer["svc.result_rtt_s"] = result / n;
  run.layer["svc.polls_per_job"] = polls / n;
  run.layer["svc.submit_bytes"] = bytes / n;
  run.layer["core.vm1opt_s"] = running / n;

  std::map<std::string, double> derived;
  registry_layers(window, n, derived);
  for (const auto& [k, v] : derived) run.layer.emplace(k, v);
  // The fleet works only in the priming solve: dist reads come from there.
  std::map<std::string, double> primed;
  registry_layers(priming, 1.0, primed);
  for (const auto& [k, v] : primed) {
    if (k.starts_with("dist.")) run.layer[k] = v;
  }
  return run;
}

}  // namespace vm1bench
