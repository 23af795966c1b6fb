#include "dist/wire.h"

#include <cstring>
#include <memory>

#include "util/hash.h"

namespace vm1::dist {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kBindDesign:
      return "bind_design";
    case MsgType::kSync:
      return "sync";
    case MsgType::kError:
      return "error";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kPing:
      return "ping";
    case MsgType::kPong:
      return "pong";
    case MsgType::kChallenge:
      return "challenge";
    case MsgType::kSubmitJob:
      return "submit_job";
    case MsgType::kJobStatus:
      return "job_status";
    case MsgType::kJobResult:
      return "job_result";
    case MsgType::kCancelJob:
      return "cancel_job";
    case MsgType::kRequestBatch:
      return "request_batch";
    case MsgType::kReplyBatch:
      return "reply_batch";
  }
  return "?";
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kAdmitted:
      return "admitted";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "?";
}

bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled || s == JobState::kDeadlineExceeded;
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t WireReader::u8() {
  if (pos_ >= len_) throw WireError("wire: truncated payload (u8)");
  return p_[pos_++];
}

std::uint64_t WireReader::le(int n) {
  if (len_ - pos_ < static_cast<std::size_t>(n)) {
    throw WireError("wire: truncated payload (le" + std::to_string(8 * n) +
                    ")");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
  }
  pos_ += static_cast<std::size_t>(n);
  return v;
}

double WireReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool WireReader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) throw WireError("wire: bool byte out of range");
  return v != 0;
}

std::string WireReader::str() {
  std::uint32_t n = u32();
  if (n > remaining()) throw WireError("wire: truncated payload (string)");
  std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
  pos_ += n;
  return s;
}

std::uint32_t WireReader::count(std::size_t min_elem_bytes) {
  std::uint32_t n = u32();
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  if (static_cast<std::size_t>(n) > remaining() / min_elem_bytes) {
    throw WireError("wire: element count " + std::to_string(n) +
                    " exceeds remaining payload");
  }
  return n;
}

void WireReader::expect_end() const {
  if (pos_ != len_) {
    throw WireError("wire: " + std::to_string(len_ - pos_) +
                    " trailing bytes after message");
  }
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
  return hash::fnv1a64(data, len);
}

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::vector<std::uint8_t> payload) {
  WireWriter h;
  h.u32(kMagic);
  h.u16(kWireVersion);
  h.u16(static_cast<std::uint16_t>(type));
  h.u32(static_cast<std::uint32_t>(payload.size()));
  h.u64(fnv1a(payload.data(), payload.size()));
  std::vector<std::uint8_t> out = h.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<Frame> extract_frame(std::vector<std::uint8_t>& buf) {
  if (buf.size() < kFrameHeaderSize) return std::nullopt;
  WireReader r(buf.data(), kFrameHeaderSize);
  if (r.u32() != kMagic) throw WireError("wire: bad frame magic");
  std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("wire: version mismatch (got " + std::to_string(version) +
                    ", want " + std::to_string(kWireVersion) + ")");
  }
  std::uint16_t type = r.u16();
  std::uint32_t len = r.u32();
  std::uint64_t checksum = r.u64();
  if (len > kMaxPayload) throw WireError("wire: oversized frame payload");
  if (type < static_cast<std::uint16_t>(MsgType::kHello) ||
      type > static_cast<std::uint16_t>(MsgType::kReplyBatch)) {
    throw WireError("wire: unknown message type " + std::to_string(type));
  }
  if (buf.size() < kFrameHeaderSize + len) return std::nullopt;
  Frame f;
  f.type = static_cast<MsgType>(type);
  f.payload.assign(buf.begin() + kFrameHeaderSize,
                   buf.begin() + kFrameHeaderSize + len);
  if (fnv1a(f.payload.data(), f.payload.size()) != checksum) {
    throw WireError("wire: frame checksum mismatch (" +
                    std::string(to_string(f.type)) + ")");
  }
  buf.erase(buf.begin(), buf.begin() + kFrameHeaderSize + len);
  return f;
}

// ---------------------------------------------------------------------------
// Shared sub-encoders.

namespace {

void put_placement(WireWriter& w, const Placement& p) {
  w.i32(p.x);
  w.i32(p.row);
  w.boolean(p.flipped);
}

Placement get_placement(WireReader& r) {
  Placement p;
  p.x = r.i32();
  p.row = r.i32();
  p.flipped = r.boolean();
  return p;
}

void put_mip(WireWriter& w, const milp::BranchAndBound::Options& mo) {
  // `cancel` is a process-local pointer and deliberately not shipped; the
  // worker solves uncancellably and the coordinator enforces deadlines.
  w.i32(mo.max_nodes);
  w.f64(mo.time_limit_sec);
  w.f64(mo.int_tol);
  w.f64(mo.gap_tol);
  w.boolean(mo.use_warm_start);
  w.i32(mo.lp_options.max_iterations);
  w.f64(mo.lp_options.time_limit_sec);
  w.f64(mo.lp_options.tol);
  w.f64(mo.lp_options.pivot_tol);
}

milp::BranchAndBound::Options get_mip(WireReader& r) {
  milp::BranchAndBound::Options mo;
  mo.max_nodes = r.i32();
  mo.time_limit_sec = r.f64();
  mo.int_tol = r.f64();
  mo.gap_tol = r.f64();
  mo.use_warm_start = r.boolean();
  mo.lp_options.max_iterations = r.i32();
  mo.lp_options.time_limit_sec = r.f64();
  mo.lp_options.tol = r.f64();
  mo.lp_options.pivot_tol = r.f64();
  return mo;
}

void put_params(WireWriter& w, const VM1Params& p) {
  w.f64(p.alpha);
  w.f64(p.beta);
  w.f64(p.epsilon);
  w.i32(p.gamma);
  w.i32(p.gamma_closed);
  w.i64(static_cast<std::int64_t>(p.delta));
  w.i32(p.max_pairs_per_net);
  w.u32(static_cast<std::uint32_t>(p.net_beta.size()));
  for (double b : p.net_beta) w.f64(b);
}

VM1Params get_params(WireReader& r) {
  VM1Params p;
  p.alpha = r.f64();
  p.beta = r.f64();
  p.epsilon = r.f64();
  p.gamma = r.i32();
  p.gamma_closed = r.i32();
  p.delta = static_cast<Coord>(r.i64());
  p.max_pairs_per_net = r.i32();
  std::uint32_t n = r.count(8);
  p.net_beta.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) p.net_beta.push_back(r.f64());
  return p;
}

void put_faults(WireWriter& w, const fault::Config& fc) {
  w.u32(static_cast<std::uint32_t>(fault::kNumSites));
  for (double rate : fc.rate) w.f64(rate);
  w.u64(fc.seed);
}

fault::Config get_faults(WireReader& r) {
  std::uint32_t n = r.count(8);
  if (n != static_cast<std::uint32_t>(fault::kNumSites)) {
    throw WireError("wire: fault-site count mismatch (got " +
                    std::to_string(n) + ", built with " +
                    std::to_string(fault::kNumSites) + ")");
  }
  fault::Config fc;
  for (double& rate : fc.rate) rate = r.f64();
  fc.seed = r.u64();
  return fc;
}

// A reply's WindowSolveResult; get_solve_result also checks the cross-field
// invariants the apply phase relies on.
void put_solve_result(WireWriter& w, const WindowSolveResult& res) {
  w.boolean(res.failed);
  w.str(res.error);
  w.i32(res.faults);
  w.boolean(res.empty_build);
  w.u32(static_cast<std::uint32_t>(res.cells.size()));
  for (int c : res.cells) w.i32(c);
  w.boolean(res.has_solution);
  w.boolean(res.usable);
  w.boolean(res.has_fallback);
  w.u32(static_cast<std::uint32_t>(res.placements.size()));
  for (const Placement& p : res.placements) put_placement(w, p);
  w.f64(res.warm_obj);
  w.f64(res.objective);
  w.i64(res.nodes);
  w.i64(res.lp_iterations);
  w.i64(res.dual_pivots);
  w.i64(res.warm_solves);
  w.i64(res.cold_restarts);
  w.i64(res.rc_fixed);
}

WindowSolveResult get_solve_result(WireReader& r) {
  WindowSolveResult res;
  res.failed = r.boolean();
  res.error = r.str();
  res.faults = r.i32();
  res.empty_build = r.boolean();
  std::uint32_t nc = r.count(4);
  res.cells.reserve(nc);
  for (std::uint32_t i = 0; i < nc; ++i) res.cells.push_back(r.i32());
  res.has_solution = r.boolean();
  res.usable = r.boolean();
  res.has_fallback = r.boolean();
  std::uint32_t np = r.count(9);
  res.placements.reserve(np);
  for (std::uint32_t i = 0; i < np; ++i) {
    res.placements.push_back(get_placement(r));
  }
  res.warm_obj = r.f64();
  res.objective = r.f64();
  res.nodes = r.i64();
  res.lp_iterations = r.i64();
  res.dual_pivots = r.i64();
  res.warm_solves = r.i64();
  res.cold_restarts = r.i64();
  res.rc_fixed = r.i64();
  // Cross-field invariants the apply phase relies on; a result violating
  // them is malformed even if every scalar decoded.
  if ((res.usable || res.has_fallback) &&
      res.placements.size() != res.cells.size()) {
    throw WireError("wire: reply placements/cells size mismatch");
  }
  if (res.usable && res.has_fallback) {
    throw WireError("wire: reply claims both usable and fallback");
  }
  return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Messages.

std::vector<std::uint8_t> encode_hello(const WireHello& h) {
  WireWriter w;
  w.u64(h.pid);
  w.u16(h.num_fault_sites);
  w.boolean(h.authed);
  if (h.authed) {
    for (std::uint8_t b : h.auth) w.u8(b);
  }
  return w.take();
}

WireHello decode_hello(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireHello h;
  h.pid = r.u64();
  h.num_fault_sites = r.u16();
  h.authed = r.boolean();
  if (h.authed) {
    for (std::uint8_t& b : h.auth) b = r.u8();
  }
  r.expect_end();
  return h;
}

std::vector<std::uint8_t> encode_ping(const WirePing& p) {
  WireWriter w;
  w.u64(p.seq);
  return w.take();
}

WirePing decode_ping(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WirePing p;
  p.seq = r.u64();
  r.expect_end();
  return p;
}

std::vector<std::uint8_t> encode_challenge(const WireChallenge& c) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(c.nonce.size()));
  for (std::uint8_t b : c.nonce) w.u8(b);
  return w.take();
}

WireChallenge decode_challenge(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireChallenge c;
  std::uint32_t n = r.count(1);
  c.nonce.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) c.nonce.push_back(r.u8());
  r.expect_end();
  return c;
}

std::vector<std::uint8_t> encode_request(const WireRequest& rq) {
  WireWriter w;
  w.u64(rq.req_id);
  w.i32(rq.job.widx);
  w.u64(rq.job.key);
  w.i32(rq.job.window.x0);
  w.i32(rq.job.window.x1);
  w.i32(rq.job.window.row0);
  w.i32(rq.job.window.row1);
  w.u32(static_cast<std::uint32_t>(rq.job.movable.size()));
  for (int inst : rq.job.movable) w.i32(inst);
  w.i32(rq.job.lx);
  w.i32(rq.job.ly);
  w.boolean(rq.job.allow_move);
  w.boolean(rq.job.allow_flip);
  w.boolean(rq.job.rounding_fallback);
  w.boolean(rq.greedy_fallback);
  put_params(w, rq.job.params);
  put_mip(w, rq.job.mip);
  put_faults(w, rq.faults);
  w.u64(rq.expected_sig.a);
  w.u64(rq.expected_sig.b);
  return w.take();
}

WireRequest decode_request(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireRequest rq;
  rq.req_id = r.u64();
  rq.job.widx = r.i32();
  rq.job.key = r.u64();
  rq.job.window.x0 = r.i32();
  rq.job.window.x1 = r.i32();
  rq.job.window.row0 = r.i32();
  rq.job.window.row1 = r.i32();
  std::uint32_t n = r.count(4);
  rq.job.movable.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) rq.job.movable.push_back(r.i32());
  rq.job.lx = r.i32();
  rq.job.ly = r.i32();
  rq.job.allow_move = r.boolean();
  rq.job.allow_flip = r.boolean();
  rq.job.rounding_fallback = r.boolean();
  rq.greedy_fallback = r.boolean();
  rq.job.params = get_params(r);
  rq.job.mip = get_mip(r);
  rq.faults = get_faults(r);
  rq.expected_sig.a = r.u64();
  rq.expected_sig.b = r.u64();
  r.expect_end();
  return rq;
}

std::vector<std::uint8_t> encode_reply(const WireReply& rp) {
  WireWriter w;
  w.u64(rp.req_id);
  put_solve_result(w, rp.result);
  return w.take();
}

WireReply decode_reply(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireReply rp;
  rp.req_id = r.u64();
  rp.result = get_solve_result(r);
  r.expect_end();
  return rp;
}

std::vector<std::uint8_t> encode_sync(const WireSync& s) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(s.changed.size()));
  for (const auto& [inst, p] : s.changed) {
    w.i32(inst);
    put_placement(w, p);
  }
  return w.take();
}

WireSync decode_sync(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireSync s;
  std::uint32_t n = r.count(13);
  s.changed.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    int inst = r.i32();
    s.changed.emplace_back(inst, get_placement(r));
  }
  r.expect_end();
  return s;
}

std::vector<std::uint8_t> encode_error(const WireErrorMsg& e) {
  WireWriter w;
  w.u64(e.req_id);
  w.u32(static_cast<std::uint32_t>(e.code));
  w.str(e.message);
  return w.take();
}

WireErrorMsg decode_error(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireErrorMsg e;
  e.req_id = r.u64();
  std::uint32_t code = r.u32();
  if (code < static_cast<std::uint32_t>(ErrorCode::kDesync) ||
      code > static_cast<std::uint32_t>(ErrorCode::kInternal)) {
    throw WireError("wire: unknown error code " + std::to_string(code));
  }
  e.code = static_cast<ErrorCode>(code);
  e.message = r.str();
  r.expect_end();
  return e;
}

// ---------------------------------------------------------------------------
// Window-solve batch messages.

namespace {

/// Length-prefixed embedded payload: batch frames carry whole
/// encode_request / encode_reply / encode_error payloads, so those codecs —
/// and their invariant checks — are reused verbatim.
void put_blob(WireWriter& w, const std::vector<std::uint8_t>& b) {
  w.u32(static_cast<std::uint32_t>(b.size()));
  for (std::uint8_t byte : b) w.u8(byte);
}

std::vector<std::uint8_t> get_blob(WireReader& r) {
  std::uint32_t n = r.count(1);
  std::vector<std::uint8_t> b;
  b.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) b.push_back(r.u8());
  return b;
}

}  // namespace

std::vector<std::uint8_t> encode_request_batch(const WireRequestBatch& b) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(b.requests.size()));
  for (const WireRequest& rq : b.requests) put_blob(w, encode_request(rq));
  return w.take();
}

WireRequestBatch decode_request_batch(
    const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireRequestBatch b;
  std::uint32_t n = r.count(4);
  b.requests.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    b.requests.push_back(decode_request(get_blob(r)));
  }
  r.expect_end();
  return b;
}

std::vector<std::uint8_t> encode_reply_batch(const WireReplyBatch& b) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(b.entries.size()));
  for (const WireBatchEntry& e : b.entries) {
    w.u8(e.is_error ? 1 : 0);
    put_blob(w, e.is_error ? encode_error(e.error) : encode_reply(e.reply));
  }
  return w.take();
}

WireReplyBatch decode_reply_batch(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireReplyBatch b;
  std::uint32_t n = r.count(5);
  b.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireBatchEntry e;
    std::uint8_t kind = r.u8();
    if (kind > 1) {
      throw WireError("wire: reply-batch entry kind out of range");
    }
    e.is_error = kind != 0;
    std::vector<std::uint8_t> blob = get_blob(r);
    if (e.is_error) {
      e.error = decode_error(blob);
    } else {
      e.reply = decode_reply(blob);
    }
    b.entries.push_back(std::move(e));
  }
  r.expect_end();
  return b;
}

// ---------------------------------------------------------------------------
// Placement-service job messages.

namespace {

JobState get_job_state(WireReader& r) {
  std::uint8_t raw = r.u8();
  if (raw < static_cast<std::uint8_t>(JobState::kQueued) ||
      raw > static_cast<std::uint8_t>(JobState::kDeadlineExceeded)) {
    throw WireError("wire: unknown job state " + std::to_string(raw));
  }
  return static_cast<JobState>(raw);
}

}  // namespace

std::vector<std::uint8_t> encode_submit_job(const WireSubmitJob& j) {
  WireWriter w;
  w.str(j.tenant);
  w.str(j.name);
  w.f64(j.deadline_sec);
  w.f64(j.theta);
  w.i32(j.max_inner_iters);
  w.boolean(j.flip_pass);
  w.boolean(j.shift_windows);
  w.boolean(j.incremental);
  w.u32(static_cast<std::uint32_t>(j.sequence.size()));
  for (const WireParamStep& s : j.sequence) {
    w.i32(s.bw);
    w.i32(s.bh);
    w.i32(s.lx);
    w.i32(s.ly);
  }
  put_params(w, j.params);
  put_mip(w, j.mip);
  w.u32(static_cast<std::uint32_t>(j.design.size()));
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), j.design.begin(), j.design.end());
  return out;
}

WireSubmitJob decode_submit_job(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireSubmitJob j;
  j.tenant = r.str();
  j.name = r.str();
  j.deadline_sec = r.f64();
  j.theta = r.f64();
  j.max_inner_iters = r.i32();
  j.flip_pass = r.boolean();
  j.shift_windows = r.boolean();
  j.incremental = r.boolean();
  std::uint32_t ns = r.count(16);
  j.sequence.reserve(ns);
  for (std::uint32_t i = 0; i < ns; ++i) {
    WireParamStep s;
    s.bw = r.i32();
    s.bh = r.i32();
    s.lx = r.i32();
    s.ly = r.i32();
    // bh == 0 is legal: ParamSet derives the height from bw.
    if (s.bw <= 0 || s.bh < 0) {
      throw WireError("wire: bad window dims in job sequence");
    }
    j.sequence.push_back(s);
  }
  j.params = get_params(r);
  j.mip = get_mip(r);
  std::uint32_t nd = r.count(1);
  if (nd != r.remaining()) {
    throw WireError("wire: embedded design length mismatch");
  }
  j.design.resize(nd);
  for (std::uint32_t i = 0; i < nd; ++i) j.design[i] = r.u8();
  r.expect_end();
  return j;
}

std::vector<std::uint8_t> encode_job_query(const WireJobQuery& q) {
  WireWriter w;
  w.u64(q.job_id);
  return w.take();
}

WireJobQuery decode_job_query(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireJobQuery q;
  q.job_id = r.u64();
  r.expect_end();
  return q;
}

std::vector<std::uint8_t> encode_job_status(const WireJobStatus& s) {
  WireWriter w;
  w.u64(s.job_id);
  w.u8(static_cast<std::uint8_t>(s.state));
  w.boolean(s.accepted);
  w.str(s.reason);
  w.f64(s.objective);
  w.i64(s.windows_done);
  return w.take();
}

WireJobStatus decode_job_status(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireJobStatus s;
  s.job_id = r.u64();
  s.state = get_job_state(r);
  s.accepted = r.boolean();
  s.reason = r.str();
  s.objective = r.f64();
  s.windows_done = r.i64();
  r.expect_end();
  return s;
}

std::vector<std::uint8_t> encode_job_result(const WireJobResult& jr) {
  WireWriter w;
  w.u64(jr.job_id);
  w.u8(static_cast<std::uint8_t>(jr.state));
  w.str(jr.error);
  w.f64(jr.objective);
  w.i64(jr.windows);
  w.i64(jr.solved);
  w.i32(jr.outer_iterations);
  w.f64(jr.seconds);
  w.u32(static_cast<std::uint32_t>(jr.placements.size()));
  for (const Placement& p : jr.placements) put_placement(w, p);
  return w.take();
}

WireJobResult decode_job_result(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireJobResult jr;
  jr.job_id = r.u64();
  jr.state = get_job_state(r);
  jr.error = r.str();
  jr.objective = r.f64();
  jr.windows = r.i64();
  jr.solved = r.i64();
  jr.outer_iterations = r.i32();
  jr.seconds = r.f64();
  std::uint32_t np = r.count(9);
  jr.placements.reserve(np);
  for (std::uint32_t i = 0; i < np; ++i) {
    jr.placements.push_back(get_placement(r));
  }
  r.expect_end();
  if (jr.state != JobState::kDone && !jr.placements.empty()) {
    throw WireError("wire: non-done job result carries placements");
  }
  return jr;
}

// ---------------------------------------------------------------------------
// Design replica.

std::vector<std::uint8_t> encode_design(const Design& d) {
  WireWriter w;
  w.str(d.name());
  // Tech is rebuilt from make_7nm() on decode; only the two mutable knobs
  // travel. Site width / row height are verified on decode so a future
  // second tech can't silently alias the default.
  w.i32(d.tech().gamma());
  w.i64(static_cast<std::int64_t>(d.tech().delta()));
  w.i64(static_cast<std::int64_t>(d.tech().site_width()));
  w.i64(static_cast<std::int64_t>(d.tech().row_height()));

  const Library& lib = d.library();
  w.i32(static_cast<std::int32_t>(lib.arch()));
  w.u32(static_cast<std::uint32_t>(lib.num_cells()));
  for (const Cell& c : lib.cells()) {
    w.str(c.name);
    w.i32(static_cast<std::int32_t>(c.arch));
    w.i32(c.width_sites);
    w.boolean(c.sequential);
    w.boolean(c.filler);
    w.i32(static_cast<std::int32_t>(c.vt));
    w.f64(c.drive_res);
    w.f64(c.intrinsic_delay);
    w.f64(c.leakage);
    w.u32(static_cast<std::uint32_t>(c.pins.size()));
    for (const PinInfo& p : c.pins) {
      w.str(p.name);
      w.boolean(p.dir == PinDir::kOutput);
      w.i64(static_cast<std::int64_t>(p.x_track));
      w.i64(static_cast<std::int64_t>(p.xmin));
      w.i64(static_cast<std::int64_t>(p.xmax));
      w.i64(static_cast<std::int64_t>(p.y_off));
      w.f64(p.cap);
      w.u32(static_cast<std::uint32_t>(p.shapes.size()));
      for (const PinShape& s : p.shapes) {
        w.i32(static_cast<std::int32_t>(s.layer));
        w.i64(static_cast<std::int64_t>(s.box.lx));
        w.i64(static_cast<std::int64_t>(s.box.ly));
        w.i64(static_cast<std::int64_t>(s.box.hx));
        w.i64(static_cast<std::int64_t>(s.box.hy));
      }
    }
  }

  const Netlist& nl = d.netlist();
  w.u32(static_cast<std::uint32_t>(nl.num_instances()));
  for (int i = 0; i < nl.num_instances(); ++i) {
    w.str(nl.instance(i).name);
    w.i32(nl.instance(i).cell);
  }
  w.u32(static_cast<std::uint32_t>(nl.num_ios()));
  for (int i = 0; i < nl.num_ios(); ++i) {
    w.str(nl.io(i).name);
    w.boolean(nl.io(i).is_input);
  }
  w.u32(static_cast<std::uint32_t>(nl.num_nets()));
  for (int n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    w.str(net.name);
    w.boolean(net.is_clock);
    w.u32(static_cast<std::uint32_t>(net.pins.size()));
    for (const NetPin& np : net.pins) {
      w.i32(np.inst);
      w.i32(np.pin);
    }
  }

  w.i32(d.num_rows());
  w.i32(d.sites_per_row());
  w.u32(static_cast<std::uint32_t>(d.placements().size()));
  for (const Placement& p : d.placements()) put_placement(w, p);
  w.u32(static_cast<std::uint32_t>(nl.num_ios()));
  for (int i = 0; i < nl.num_ios(); ++i) {
    w.i64(static_cast<std::int64_t>(d.io_position(i).x));
    w.i64(static_cast<std::int64_t>(d.io_position(i).y));
  }
  return w.take();
}

Design decode_design(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  std::string name = r.str();
  Tech tech = Tech::make_7nm();
  tech.set_gamma(r.i32());
  tech.set_delta(static_cast<Coord>(r.i64()));
  if (r.i64() != static_cast<std::int64_t>(tech.site_width()) ||
      r.i64() != static_cast<std::int64_t>(tech.row_height())) {
    throw WireError("wire: design tech grid mismatch with make_7nm()");
  }

  std::int32_t arch_raw = r.i32();
  if (arch_raw < 0 || arch_raw > static_cast<int>(CellArch::kOpenM1)) {
    throw WireError("wire: bad library arch");
  }
  auto lib = std::make_unique<Library>(static_cast<CellArch>(arch_raw));
  std::uint32_t num_cells = r.count();
  for (std::uint32_t ci = 0; ci < num_cells; ++ci) {
    Cell c;
    c.name = r.str();
    std::int32_t carch = r.i32();
    if (carch < 0 || carch > static_cast<int>(CellArch::kOpenM1)) {
      throw WireError("wire: bad cell arch");
    }
    c.arch = static_cast<CellArch>(carch);
    c.width_sites = r.i32();
    if (c.width_sites <= 0) throw WireError("wire: bad cell width");
    c.sequential = r.boolean();
    c.filler = r.boolean();
    std::int32_t vt = r.i32();
    if (vt < 0 || vt > static_cast<int>(Vt::kHvt)) {
      throw WireError("wire: bad cell vt");
    }
    c.vt = static_cast<Vt>(vt);
    c.drive_res = r.f64();
    c.intrinsic_delay = r.f64();
    c.leakage = r.f64();
    std::uint32_t num_pins = r.count();
    for (std::uint32_t pi = 0; pi < num_pins; ++pi) {
      PinInfo p;
      p.name = r.str();
      p.dir = r.boolean() ? PinDir::kOutput : PinDir::kInput;
      p.x_track = static_cast<Coord>(r.i64());
      p.xmin = static_cast<Coord>(r.i64());
      p.xmax = static_cast<Coord>(r.i64());
      p.y_off = static_cast<Coord>(r.i64());
      p.cap = r.f64();
      std::uint32_t num_shapes = r.count();
      for (std::uint32_t si = 0; si < num_shapes; ++si) {
        PinShape s;
        std::int32_t layer = r.i32();
        if (layer < 0 || layer > static_cast<int>(LayerId::kM4)) {
          throw WireError("wire: bad pin shape layer");
        }
        s.layer = static_cast<LayerId>(layer);
        s.box.lx = static_cast<Coord>(r.i64());
        s.box.ly = static_cast<Coord>(r.i64());
        s.box.hx = static_cast<Coord>(r.i64());
        s.box.hy = static_cast<Coord>(r.i64());
        p.shapes.push_back(s);
      }
      c.pins.push_back(std::move(p));
    }
    lib->add_cell(std::move(c));
  }

  auto nl = std::make_unique<Netlist>(lib.get());
  std::uint32_t num_insts = r.count();
  for (std::uint32_t i = 0; i < num_insts; ++i) {
    std::string iname = r.str();
    std::int32_t cell = r.i32();
    if (cell < 0 || cell >= lib->num_cells()) {
      throw WireError("wire: instance references bad cell index");
    }
    nl->add_instance(iname, cell);
  }
  std::uint32_t num_ios = r.count();
  for (std::uint32_t i = 0; i < num_ios; ++i) {
    std::string ioname = r.str();
    nl->add_io(ioname, r.boolean());
  }
  std::uint32_t num_nets = r.count();
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    std::string nname = r.str();
    bool is_clock = r.boolean();
    int net = nl->add_net(nname, is_clock);
    std::uint32_t num_pins = r.count(8);
    for (std::uint32_t pi = 0; pi < num_pins; ++pi) {
      NetPin np;
      np.inst = r.i32();
      np.pin = r.i32();
      if (np.is_io()) {
        if (np.pin < 0 || np.pin >= nl->num_ios()) {
          throw WireError("wire: net references bad io index");
        }
      } else {
        if (np.inst >= nl->num_instances() || np.pin < 0 ||
            np.pin >= static_cast<int>(nl->cell_of(np.inst).pins.size())) {
          throw WireError("wire: net references bad instance pin");
        }
      }
      nl->connect(net, np);
    }
  }

  std::int32_t num_rows = r.i32();
  std::int32_t sites_per_row = r.i32();
  if (num_rows <= 0 || sites_per_row <= 0) {
    throw WireError("wire: bad floorplan dimensions");
  }
  std::uint32_t num_place = r.count(9);
  if (num_place != num_insts) {
    throw WireError("wire: placement count != instance count");
  }
  std::vector<Placement> place;
  place.reserve(num_place);
  for (std::uint32_t i = 0; i < num_place; ++i) {
    place.push_back(get_placement(r));
  }
  std::uint32_t num_io_pos = r.count(16);
  if (num_io_pos != num_ios) {
    throw WireError("wire: io position count != io count");
  }
  std::vector<Point> io_pos;
  io_pos.reserve(num_io_pos);
  for (std::uint32_t i = 0; i < num_io_pos; ++i) {
    Point p;
    p.x = static_cast<Coord>(r.i64());
    p.y = static_cast<Coord>(r.i64());
    io_pos.push_back(p);
  }
  r.expect_end();

  Design d(std::move(name), tech, std::move(lib), std::move(nl), num_rows,
           sites_per_row);
  for (std::uint32_t i = 0; i < num_place; ++i) {
    d.set_placement(static_cast<int>(i), place[i]);
  }
  for (std::uint32_t i = 0; i < num_io_pos; ++i) {
    d.set_io_position(static_cast<int>(i), io_pos[i]);
  }
  return d;
}

std::uint64_t design_digest(const Design& d) {
  std::vector<std::uint8_t> bytes = encode_design(d);
  return fnv1a(bytes.data(), bytes.size());
}

}  // namespace vm1::dist
