#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/dist_opt.h"
#include "core/incremental.h"
#include "core/window_solve.h"
#include "dist/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/subprocess.h"

namespace vm1::dist {

namespace {

bool send_frame(int fd, MsgType type, std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> frame =
      encode_frame(type, std::move(payload));
  return subprocess::write_all(fd, frame.data(), frame.size());
}

/// Top-level kError: rejects a whole inbound frame, so it names no window
/// (per-window errors travel as kReplyBatch entries).
bool send_error(int fd, const std::string& message) {
  WireErrorMsg e;
  e.code = ErrorCode::kBadRequest;
  e.message = message;
  return send_frame(fd, MsgType::kError, encode_error(e));
}

/// Distinct nets incident to the window's movable set — same collect/
/// sort/unique normalization as core/window.cpp's window_incident_nets,
/// so the recomputed signature matches the coordinator's bit-for-bit.
std::vector<int> incident_nets_of(const Design& d,
                                  const std::vector<int>& movable) {
  std::vector<int> nets;
  for (int inst : movable) {
    const std::vector<int>& in = d.netlist().nets_of(inst);
    nets.insert(nets.end(), in.begin(), in.end());
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

}  // namespace

WindowSig replica_signature(const Design& replica, const WireRequest& rq,
                            std::vector<int>& marks) {
  DistOptOptions sig_opts;
  sig_opts.lx = rq.job.lx;
  sig_opts.ly = rq.job.ly;
  sig_opts.allow_move = rq.job.allow_move;
  sig_opts.allow_flip = rq.job.allow_flip;
  sig_opts.rounding_fallback = rq.job.rounding_fallback;
  sig_opts.greedy_fallback = rq.greedy_fallback;
  sig_opts.params = rq.job.params;
  sig_opts.mip = rq.job.mip;
  for (int inst : rq.job.movable) marks[static_cast<std::size_t>(inst)] = 0;
  WindowSig sig = window_signature(
      replica, rq.job.window, rq.job.movable, marks, /*self=*/0,
      incident_nets_of(replica, rq.job.movable),
      fixed_site_mask(replica, rq.job.window, rq.job.movable), sig_opts);
  for (int inst : rq.job.movable) marks[static_cast<std::size_t>(inst)] = -1;
  return sig;
}

namespace {

/// Validates, signature-checks, and solves one request of a batch,
/// returning its reply-batch entry: a reply or a typed error. Returns
/// nullopt when the reply_drop drill fired. Everything transport-level
/// (reply frames, slow-loris/corrupt drills) stays with the caller.
/// `marks` is the replica's ownership array (see replica_signature).
std::optional<WireBatchEntry> process_request(const Design* design,
                                              std::vector<int>& marks,
                                              const WireRequest& rq) {
  static obs::Counter& requests_metric = obs::counter("dist.worker.requests");
  static obs::Counter& desyncs_metric = obs::counter("dist.worker.desyncs");
  static obs::Histogram& solve_sec_metric =
      obs::histogram("dist_opt.window_solve_sec");

  requests_metric.add();
  fault::set_config(rq.faults);

  WireBatchEntry out;
  auto fail = [&](ErrorCode code, const std::string& message) {
    out.is_error = true;
    out.error.req_id = rq.req_id;
    out.error.code = code;
    out.error.message = message;
    return out;
  };

  if (!design) {
    return fail(ErrorCode::kDesync, "no design bound before request");
  }
  for (int inst : rq.job.movable) {
    if (inst < 0 || inst >= design->netlist().num_instances()) {
      return fail(ErrorCode::kBadRequest, "movable instance out of range");
    }
  }
  // The fixed-site mask below is sized and indexed by the window, so a
  // window outside the replica's core is refused before anything reads it.
  const Window& win = rq.job.window;
  if (win.x0 < 0 || win.x0 > win.x1 || win.x1 > design->sites_per_row() ||
      win.row0 < 0 || win.row0 > win.row1 ||
      win.row1 >= design->num_rows()) {
    return fail(ErrorCode::kBadRequest, "window outside the core");
  }

  obs::ObsSpan span("dist.worker_request");
  span.arg("window", rq.job.widx);

  // Injected crash drill: die exactly where a real worker OOM-kill or
  // segfault would — after accepting the request, before replying.
  if (fault::config().enabled() &&
      fault::should_fire(fault::Site::kWorkerKill, rq.job.key)) {
    log_warn("vm1_worker: injected worker_kill, window ", rq.job.widx);
    _exit(3);
  }

  // Replica-consistency check: recompute the canonical window signature
  // (core/incremental.cpp) over the replica. It covers exactly the inputs
  // that can drift on a missed sync — movable placements, the fixed-site
  // mask, boundary pins — so a desynced replica is caught before it can
  // produce a subtly different (yet audit-clean) solution.
  if (replica_signature(*design, rq, marks) != rq.expected_sig) {
    desyncs_metric.add();
    span.arg("outcome", "desync");
    return fail(ErrorCode::kDesync,
                "window signature mismatch (stale replica)");
  }

  out.reply.req_id = rq.req_id;
  {
    obs::ScopedTimer t(solve_sec_metric);
    out.reply.result = solve_window(*design, rq.job, /*cancel=*/nullptr);
  }

  if (fault::config().enabled() &&
      fault::should_fire(fault::Site::kReplyDrop, rq.job.key)) {
    // Simulated lost reply: the work happened but the reply never leaves
    // (see handle_request_batch for how the coordinator notices).
    log_warn("vm1_worker: injected reply_drop, window ", rq.job.widx);
    span.arg("outcome", "reply_drop");
    return std::nullopt;
  }
  return out;
}

/// Applies the transport-level reply drills (slow-loris, corrupt) to an
/// outbound frame keyed on `key`, then writes it. Returns false when the
/// socket died.
bool send_reply_frame(int fd, std::vector<std::uint8_t> frame,
                      std::uint64_t key, long widx) {
  if (fault::config().enabled() &&
      fault::should_fire(fault::Site::kSlowLoris, key)) {
    // Slow-loris drill: leak the start of the reply frame, then hold the
    // connection open without ever finishing it. The coordinator must not
    // block on the incomplete frame — its per-request deadline fires, the
    // worker is torn down, and the read below sees EOF.
    std::size_t drip = std::min<std::size_t>(kFrameHeaderSize, frame.size());
    log_warn("vm1_worker: injected slow_loris, window ", widx);
    if (!subprocess::write_all(fd, frame.data(), drip)) return false;
    std::uint8_t sink[256];
    while (subprocess::read_some(fd, sink, sizeof sink) > 0) {
    }
    return false;
  }
  if (fault::config().enabled() &&
      fault::should_fire(fault::Site::kReplyCorrupt, key)) {
    // Flip one payload byte after the checksum was computed: the frame
    // still parses, the checksum rejects it, and the stream stays framed.
    if (frame.size() > kFrameHeaderSize) {
      frame[kFrameHeaderSize] ^= 0x5a;
      log_warn("vm1_worker: injected reply_corrupt, window ", widx);
    }
  }
  return subprocess::write_all(fd, frame.data(), frame.size());
}

/// Handles one kRequestBatch frame: processes every embedded request and
/// answers with a single kReplyBatch. A request whose reply_drop drill
/// fires is omitted from the batch, and the coordinator fails it as soon
/// as the batch reply lands. When the drill removed every entry no frame
/// is sent at all, so the coordinator's request deadline fires — the hang
/// the drill simulates. The frame-level drills are keyed on the first
/// request, so a batch behaves like one big reply on the wire.
bool handle_request_batch(int fd, const Design* design,
                          std::vector<int>& marks,
                          const std::vector<std::uint8_t>& payload) {
  WireRequestBatch batch;
  try {
    batch = decode_request_batch(payload);
  } catch (const WireError& e) {
    return send_error(fd, e.what());
  }
  if (batch.requests.empty()) {
    return send_error(fd, "empty request batch");
  }
  WireReplyBatch rb;
  rb.entries.reserve(batch.requests.size());
  for (const WireRequest& rq : batch.requests) {
    if (std::optional<WireBatchEntry> e =
            process_request(design, marks, rq)) {
      rb.entries.push_back(std::move(*e));
    }
  }
  if (rb.entries.empty()) return true;  // every reply dropped: stay silent
  return send_reply_frame(
      fd, encode_frame(MsgType::kReplyBatch, encode_reply_batch(rb)),
      batch.requests.front().job.key, batch.requests.front().job.widx);
}

}  // namespace

int run_worker(int fd, bool send_hello) {
  if (send_hello) {
    WireHello hello;
    hello.pid = static_cast<std::uint64_t>(getpid());
    hello.num_fault_sites = static_cast<std::uint16_t>(fault::kNumSites);
    if (!send_frame(fd, MsgType::kHello, encode_hello(hello))) return 1;
  }

  std::optional<Design> design;
  std::vector<int> marks;  ///< replica-sized, all -1 between requests
  std::vector<std::uint8_t> rbuf;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    std::optional<Frame> f;
    try {
      f = extract_frame(rbuf);
    } catch (const WireError& e) {
      // The inbound stream lost framing; no way to resync a byte stream.
      log_error("vm1_worker: unrecoverable stream error: ", e.what());
      return 2;
    }
    if (!f) {
      long n = subprocess::read_some(fd, chunk, sizeof chunk);
      if (n <= 0) return n == 0 ? 0 : 1;  // EOF = orderly shutdown
      rbuf.insert(rbuf.end(), chunk, chunk + n);
      continue;
    }
    switch (f->type) {
      case MsgType::kBindDesign:
        try {
          design.emplace(decode_design(f->payload));
          marks.assign(
              static_cast<std::size_t>(design->netlist().num_instances()), -1);
          log_debug("vm1_worker: bound design '", design->name(), "' (",
                    design->netlist().num_instances(), " instances)");
        } catch (const WireError& e) {
          log_error("vm1_worker: bad design snapshot: ", e.what());
          if (!send_error(fd, e.what())) return 1;
          design.reset();
        }
        break;
      case MsgType::kSync:
        try {
          WireSync s = decode_sync(f->payload);
          if (!design) break;  // deltas for a replica we no longer hold
          for (const auto& [inst, p] : s.changed) {
            if (inst < 0 || inst >= design->netlist().num_instances()) {
              throw WireError("sync instance out of range");
            }
            design->set_placement(inst, p);
          }
        } catch (const WireError& e) {
          // A bad delta leaves the replica unreliable; drop it so the
          // next request desyncs and forces a rebind.
          log_error("vm1_worker: bad sync, dropping replica: ", e.what());
          design.reset();
        }
        break;
      case MsgType::kRequestBatch:
        if (!handle_request_batch(fd, design ? &*design : nullptr, marks,
                                  f->payload)) {
          return 1;
        }
        break;
      case MsgType::kPing:
        try {
          WirePing ping = decode_ping(f->payload);
          if (!send_frame(fd, MsgType::kPong, encode_ping(ping))) return 1;
        } catch (const WireError& e) {
          log_error("vm1_worker: bad ping: ", e.what());
          if (!send_error(fd, e.what())) return 1;
        }
        break;
      case MsgType::kShutdown:
        return 0;
      default:
        log_error("vm1_worker: unexpected message type ",
                  to_string(f->type));
        if (!send_error(fd, "unexpected message type")) return 1;
        break;
    }
  }
}

}  // namespace vm1::dist
