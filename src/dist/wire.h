/// \file wire.h
/// Versioned, endian-stable binary wire format for the distributed
/// window-solve service (see DESIGN.md "Distributed window solving").
///
/// Framing: every message is
///
///   [magic u32 | version u16 | type u16 | payload_len u32 | checksum u64]
///   [payload_len payload bytes]
///
/// with all integers little-endian and `checksum` the FNV-1a 64 hash of
/// the payload. A reader rejects bad magic, version mismatch, oversized
/// lengths, and checksum failures with a typed WireError — a corrupted or
/// truncated stream can refuse service but never produce UB or a
/// half-decoded message.
///
/// Payloads: primitive little-endian scalars written by WireWriter and
/// read by the bounds-checked WireReader. Doubles travel as their IEEE-754
/// bit pattern (u64), so values — including NaNs — round-trip bit-exactly;
/// that is what makes the processes backend's bit-identity guarantee hold
/// across the socket.
///
/// Versioning rules: kWireVersion bumps on ANY change to an existing
/// message layout (field added/removed/reordered/retyped). Coordinator and
/// worker are always built from the same tree in this repo, so a version
/// mismatch means a stale binary — the reader fails fast rather than
/// negotiating. New message types may be added without a bump; unknown
/// types are a protocol error at the receiver.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/window_solve.h"
#include "util/fault_injection.h"

namespace vm1::dist {

inline constexpr std::uint32_t kMagic = 0x564D3144u;  // "VM1D"
/// v2: kHello gained the optional auth tag (TCP attach handshake), and the
/// kChallenge/kPing/kPong supervision messages were added.
/// v3: a kRequestBatch entry carries one MIP options block (the request's
/// own `job.mip`, which the worker also signs) instead of two.
/// v4: a kReplyBatch entry carries its kind and payload, without the
/// `cached` tag of a worker memo replay.
inline constexpr std::uint16_t kWireVersion = 4;
/// Upper bound on a frame payload; larger lengths are treated as stream
/// corruption (the full aes design snapshot is ~2 MB).
inline constexpr std::uint32_t kMaxPayload = 1u << 30;
inline constexpr std::size_t kFrameHeaderSize = 20;

/// Typed decode/stream failure. Catching WireError is how the coordinator
/// classifies a malformed reply (retry-once-then-local-fallback); anything
/// escaping as UB would defeat the guardrail, hence the fuzz tests.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class MsgType : std::uint16_t {
  kHello = 1,       ///< worker -> coordinator, once after connect
  kBindDesign = 2,  ///< coordinator -> worker: full design replica
  // 3 and 4 carried the retired one-window request/reply frames (window
  // solves travel as kRequestBatch/kReplyBatch). Never reuse them: a stale
  // peer of the same wire version may still send them.
  kSync = 5,        ///< coordinator -> worker: placement deltas (one-way)
  kError = 6,       ///< worker -> coordinator: whole-frame failure
  kShutdown = 7,    ///< coordinator -> worker: exit cleanly
  kPing = 8,        ///< coordinator -> worker: heartbeat probe
  kPong = 9,        ///< worker -> coordinator: heartbeat echo (same seq)
  kChallenge = 10,  ///< coordinator -> worker: auth nonce (TCP attach)
  // Placement-service job frames (src/svc). Client <-> service, multiplexed
  // on the same framing + auth handshake as the worker protocol. Added
  // without a version bump per the versioning rules above: new types, no
  // existing layout changed.
  kSubmitJob = 11,  ///< client -> service: WireSubmitJob; ack is kJobStatus
  kJobStatus = 12,  ///< client -> service: WireJobQuery; reply WireJobStatus
  kJobResult = 13,  ///< client -> service: WireJobQuery; reply WireJobResult
  kCancelJob = 14,  ///< client -> service: WireJobQuery; ack is kJobStatus
  // 15 and 16 carried the retired worker-memo probe and its answer. Never
  // reuse them, for the same reason as 3 and 4.
  kRequestBatch = 17, ///< coordinator -> worker: WireRequestBatch
  kReplyBatch = 18,   ///< worker -> coordinator: WireReplyBatch
};

const char* to_string(MsgType t);

/// Lifecycle of a placement-service job. Wire-stable: values are part of
/// the kJobStatus/kJobResult payloads, so renumbering is a layout change
/// and requires a kWireVersion bump.
enum class JobState : std::uint8_t {
  kQueued = 1,            ///< accepted by admission control, waiting
  kAdmitted = 2,          ///< claimed by an executor, about to run
  kRunning = 3,           ///< vm1opt in flight
  kDone = 4,              ///< terminal: completed, result available
  kFailed = 5,            ///< terminal: solver threw; reason recorded
  kCancelled = 6,         ///< terminal: client cancel honoured
  kDeadlineExceeded = 7,  ///< terminal: deadline fired before completion
};

const char* to_string(JobState s);
/// True for the four terminal states (kDone..kDeadlineExceeded).
bool job_state_terminal(JobState s);

/// Little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  ///< IEEE-754 bit pattern; NaN-preserving
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader. Every accessor throws
/// WireError instead of reading past the end.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len)
      : p_(data), len_(len) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean();
  std::string str();

  std::size_t remaining() const { return len_ - pos_; }
  /// Element-count sanity guard: a count field claiming more elements than
  /// bytes left is corruption; throwing here bounds allocations by the
  /// buffer size.
  std::uint32_t count(std::size_t min_elem_bytes = 1);
  /// Throws unless the payload was consumed exactly.
  void expect_end() const;

 private:
  std::uint64_t le(int n);
  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64 over a byte range (the frame checksum).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len);

struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> payload;
};

/// Wraps a payload in a checksummed frame ready for write_all().
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::vector<std::uint8_t> payload);

/// Pops one complete frame off the front of `buf` (a per-connection
/// receive buffer fed by read_some). Returns nullopt when more bytes are
/// needed; throws WireError on bad magic/version/length/checksum — after
/// which the stream is unrecoverable and the connection must be dropped.
std::optional<Frame> extract_frame(std::vector<std::uint8_t>& buf);

// ---------------------------------------------------------------------------
// Message payloads.

struct WireHello {
  std::uint64_t pid = 0;
  /// fault::kNumSites of the worker binary; a mismatch means a stale
  /// worker whose fault schedule (part of window signatures) would drift.
  std::uint16_t num_fault_sites = 0;
  /// HMAC-SHA256($VM1_DIST_SECRET, server nonce) proving the worker saw
  /// the kChallenge and knows the shared secret. Absent (`authed` false)
  /// on the socketpair transport, where the kernel already guarantees the
  /// peer is the process the coordinator forked.
  bool authed = false;
  std::array<std::uint8_t, 32> auth{};
};

/// Heartbeat probe/echo: the worker returns the coordinator's `seq`
/// verbatim, so the coordinator can match pongs to pings and measure RTT
/// on its own clock.
struct WirePing {
  std::uint64_t seq = 0;
};

/// Auth nonce sent by the TCP listener immediately after accept; the
/// worker's hello must carry HMAC(secret, nonce).
struct WireChallenge {
  std::vector<std::uint8_t> nonce;
};

/// One window subproblem, embedded in a WireRequestBatch. `job` — together
/// with `greedy_fallback` and `faults` — is everything the worker needs to
/// solve the window and to recompute its canonical window signature for
/// the replica-consistency check against `expected_sig`.
struct WireRequest {
  std::uint64_t req_id = 0;
  WindowSolveJob job;
  bool greedy_fallback = true;
  fault::Config faults;
  WindowSig expected_sig;
};

struct WireReply {
  std::uint64_t req_id = 0;
  WindowSolveResult result;
};

/// Placement deltas applied by the coordinator's serial apply phase after
/// a batch; broadcast so every replica tracks the authoritative design.
struct WireSync {
  std::vector<std::pair<int, Placement>> changed;
};

enum class ErrorCode : std::uint32_t {
  kDesync = 1,      ///< replica signature mismatch; rebind and retry
  kBadRequest = 2,  ///< request referenced out-of-range instances etc.
  kInternal = 3,    ///< unexpected worker-side failure
};

struct WireErrorMsg {
  std::uint64_t req_id = 0;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ---------------------------------------------------------------------------
// Window-solve batch payloads.

/// Complete WireRequests in one frame (the coordinator sends one per
/// frame). Each embedded request is self-contained (own req_id, signature,
/// faults), so the framing never changes solve semantics.
struct WireRequestBatch {
  std::vector<WireRequest> requests;
};

/// One entry of a WireReplyBatch: either a reply or a typed error.
struct WireBatchEntry {
  bool is_error = false;
  WireReply reply;     ///< valid when !is_error
  WireErrorMsg error;  ///< valid when is_error
};

/// Worker's answer to a WireRequestBatch, one entry per embedded request
/// in order, minus any the reply_drop drill removed. Entries carry their
/// own req_ids, so the coordinator resolves each one individually.
struct WireReplyBatch {
  std::vector<WireBatchEntry> entries;
};

// ---------------------------------------------------------------------------
// Placement-service job payloads (src/svc).

/// One window-parameter step of the outer sweep (mirrors
/// vm1::ParamSet without dragging core/vm1opt.h into the wire layer).
struct WireParamStep {
  std::int32_t bw = 0;
  std::int32_t bh = 0;
  std::int32_t lx = 0;
  std::int32_t ly = 0;
};

/// A complete design job: the design plus every optimizer knob needed to
/// reproduce a standalone vm1opt run bit-exactly on the service side.
struct WireSubmitJob {
  std::string tenant;      ///< admission/fair-share accounting key
  std::string name;        ///< client-chosen label (diagnostics only)
  double deadline_sec = 0; ///< seconds from admission; 0 = no deadline
  double theta = 0.01;
  std::int32_t max_inner_iters = 4;
  bool flip_pass = true;
  bool shift_windows = true;
  bool incremental = true;
  std::vector<WireParamStep> sequence;
  VM1Params params;
  milp::BranchAndBound::Options mip;
  std::vector<std::uint8_t> design;  ///< encode_design() bytes
};

/// Client -> service query naming one job (kJobStatus / kJobResult /
/// kCancelJob requests all carry exactly this).
struct WireJobQuery {
  std::uint64_t job_id = 0;
};

/// Service -> client status snapshot; also the ack for kSubmitJob (where
/// `accepted` false + `reason` reports an admission rejection) and for
/// kCancelJob.
struct WireJobStatus {
  std::uint64_t job_id = 0;
  JobState state = JobState::kQueued;
  bool accepted = true;     ///< false: rejected at admission, see reason
  std::string reason;       ///< rejection/failure detail, else empty
  double objective = 0;     ///< final objective once terminal, else 0
  std::int64_t windows_done = 0;  ///< windows served so far (progress)
};

/// Service -> client full result for a terminal job. `placements` is empty
/// unless state == kDone.
struct WireJobResult {
  std::uint64_t job_id = 0;
  JobState state = JobState::kDone;
  std::string error;        ///< failure/cancel reason, else empty
  double objective = 0;
  std::int64_t windows = 0;
  std::int64_t solved = 0;
  std::int32_t outer_iterations = 0;
  double seconds = 0;       ///< service-side wall clock, submit -> terminal
  std::vector<Placement> placements;
};

std::vector<std::uint8_t> encode_hello(const WireHello& h);
WireHello decode_hello(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_ping(const WirePing& p);
WirePing decode_ping(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_challenge(const WireChallenge& c);
WireChallenge decode_challenge(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_request(const WireRequest& rq);
WireRequest decode_request(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_reply(const WireReply& rp);
WireReply decode_reply(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_sync(const WireSync& s);
WireSync decode_sync(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_error(const WireErrorMsg& e);
WireErrorMsg decode_error(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_request_batch(const WireRequestBatch& b);
WireRequestBatch decode_request_batch(
    const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_reply_batch(const WireReplyBatch& b);
WireReplyBatch decode_reply_batch(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_submit_job(const WireSubmitJob& j);
WireSubmitJob decode_submit_job(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_job_query(const WireJobQuery& q);
WireJobQuery decode_job_query(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_job_status(const WireJobStatus& s);
WireJobStatus decode_job_status(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_job_result(const WireJobResult& r);
WireJobResult decode_job_result(const std::vector<std::uint8_t>& payload);

/// Full design replica: tech knobs, library, netlist, floorplan,
/// placements, IO positions. The decode side reconstructs a Design whose
/// window solves are bit-identical to the original's.
std::vector<std::uint8_t> encode_design(const Design& d);
Design decode_design(const std::vector<std::uint8_t>& payload);

/// Structural + placement digest of a design (FNV over the same fields
/// encode_design ships). The coordinator uses it to decide whether worker
/// replicas are stale at pass boundaries.
std::uint64_t design_digest(const Design& d);

}  // namespace vm1::dist
