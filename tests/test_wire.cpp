/// Wire-format tests for the distributed window-solve service
/// (dist/wire.h): bit-exact encode -> decode round-trips for every message
/// type (including NaN doubles, every reply-batch entry kind, and a full
/// design replica), and a seeded corruption/truncation fuzz harness proving
/// that a damaged stream always surfaces as a typed WireError — never UB,
/// an unbounded allocation, or a half-decoded message. Also built into the
/// ASan `faults` binary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/window.h"
#include "core/window_solve.h"
#include "dist/wire.h"
#include "place/global_placer.h"
#include "place/legalizer.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace vm1::dist {
namespace {

Design placed_design(std::uint64_t seed, CellArch arch) {
  DesignOptions dopt;
  dopt.scale = 0.3;
  dopt.utilization = 0.7;
  dopt.seed = seed | 1;
  Design d = make_design("tiny", arch, dopt);
  GlobalPlaceOptions gp;
  gp.seed = seed * 31 + 7;
  global_place(d, gp);
  legalize(d);
  return d;
}

WireRequest sample_request(std::uint64_t seed) {
  Rng rng(seed);
  WireRequest rq;
  rq.req_id = rng.next();
  rq.job.widx = static_cast<int>(rng.uniform(1000));
  rq.job.key = rng.next();
  rq.job.window = Window{3, 40, 1, 4};
  rq.job.movable = {2, 5, 9, static_cast<int>(rng.uniform(100))};
  rq.job.lx = 4;
  rq.job.ly = 1;
  rq.job.allow_move = rng.chance(0.5);
  rq.job.allow_flip = rng.chance(0.5);
  rq.job.rounding_fallback = rng.chance(0.5);
  rq.job.params.alpha = 20 + rng.uniform_real();
  rq.job.params.net_beta = {1.0, 0.5, 2.25};
  rq.job.mip.max_nodes = 60;
  rq.job.mip.time_limit_sec = 1.5;
  rq.job.mip.lp_options.time_limit_sec = 0.75;
  rq.greedy_fallback = rng.chance(0.5);
  rq.faults.rate[0] = 0.25;
  rq.faults.rate[fault::kNumSites - 1] = 0.5;
  rq.faults.seed = rng.next();
  rq.expected_sig = WindowSig{rng.next(), rng.next()};
  return rq;
}

WireReply sample_reply(std::uint64_t seed) {
  Rng rng(seed);
  WireReply rp;
  rp.req_id = rng.next();
  rp.result.faults = 1;
  rp.result.cells = {2, 5, 9};
  rp.result.has_solution = true;
  rp.result.usable = true;
  rp.result.placements = {Placement{10, 2, false}, Placement{-3, 0, true},
                          Placement{7, 1, true}};
  rp.result.warm_obj = 12.75;
  rp.result.objective = 11.5;
  rp.result.nodes = 17;
  rp.result.lp_iterations = 301;
  rp.result.dual_pivots = 44;
  rp.result.warm_solves = 12;
  rp.result.cold_restarts = 1;
  rp.result.rc_fixed = 3;
  return rp;
}

/// A reply batch with two replies and a typed error.
WireReplyBatch sample_reply_batch(std::uint64_t seed) {
  WireReplyBatch b;
  WireBatchEntry first;
  first.reply = sample_reply(seed);
  WireBatchEntry second;
  second.reply = sample_reply(seed + 1);
  WireBatchEntry err;
  err.is_error = true;
  err.error.req_id = 41;
  err.error.code = ErrorCode::kDesync;
  err.error.message = "window signature mismatch (stale replica)";
  b.entries = {first, second, err};
  return b;
}

TEST(WireFrame, RoundTripsBitExact) {
  std::vector<std::uint8_t> payload = {0xde, 0xad, 0x00, 0xff, 0x42};
  std::vector<std::uint8_t> frame = encode_frame(MsgType::kSync, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());

  std::vector<std::uint8_t> buf = frame;
  std::optional<Frame> f = extract_frame(buf);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, MsgType::kSync);
  EXPECT_EQ(f->payload, payload);
  EXPECT_TRUE(buf.empty()) << "frame bytes must be consumed";
}

TEST(WireFrame, PartialBuffersWaitForMoreBytes) {
  std::vector<std::uint8_t> frame =
      encode_frame(MsgType::kHello, {1, 2, 3, 4});
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<std::uint8_t> buf(frame.begin(), frame.begin() + cut);
    EXPECT_EQ(extract_frame(buf), std::nullopt) << "cut at " << cut;
    EXPECT_EQ(buf.size(), cut) << "partial frame must not be consumed";
  }
}

TEST(WireFrame, BackToBackFramesPopInOrder) {
  std::vector<std::uint8_t> buf = encode_frame(MsgType::kHello, {1});
  std::vector<std::uint8_t> second = encode_frame(MsgType::kShutdown, {});
  buf.insert(buf.end(), second.begin(), second.end());
  std::optional<Frame> a = extract_frame(buf);
  std::optional<Frame> b = extract_frame(buf);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->type, MsgType::kHello);
  EXPECT_EQ(b->type, MsgType::kShutdown);
  EXPECT_EQ(extract_frame(buf), std::nullopt);
}

TEST(WireFrame, RejectsBadMagicVersionTypeAndChecksum) {
  std::vector<std::uint8_t> good =
      encode_frame(MsgType::kReplyBatch, {9, 9, 9});

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(extract_frame(bad_magic), WireError);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] ^= 0xff;
  EXPECT_THROW(extract_frame(bad_version), WireError);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[6] = 0xff;  // type far outside the MsgType range
  EXPECT_THROW(extract_frame(bad_type), WireError);

  std::vector<std::uint8_t> bad_len = good;
  bad_len[11] = 0xff;  // payload_len high byte -> > kMaxPayload
  EXPECT_THROW(extract_frame(bad_len), WireError);

  std::vector<std::uint8_t> bad_payload = good;
  bad_payload[kFrameHeaderSize] ^= 0x01;  // checksum now disagrees
  EXPECT_THROW(extract_frame(bad_payload), WireError);
}

TEST(WireMessages, HelloErrorSyncRoundTrip) {
  WireHello h;
  h.pid = 0x1234567890abcdefULL;
  h.num_fault_sites = fault::kNumSites;
  WireHello h2 = decode_hello(encode_hello(h));
  EXPECT_EQ(h2.pid, h.pid);
  EXPECT_EQ(h2.num_fault_sites, h.num_fault_sites);

  WireErrorMsg e;
  e.req_id = 77;
  e.code = ErrorCode::kDesync;
  e.message = "window signature mismatch";
  WireErrorMsg e2 = decode_error(encode_error(e));
  EXPECT_EQ(e2.req_id, e.req_id);
  EXPECT_EQ(e2.code, e.code);
  EXPECT_EQ(e2.message, e.message);

  WireSync s;
  s.changed = {{3, Placement{10, 2, true}}, {8, Placement{-4, 0, false}}};
  WireSync s2 = decode_sync(encode_sync(s));
  ASSERT_EQ(s2.changed.size(), s.changed.size());
  for (std::size_t i = 0; i < s.changed.size(); ++i) {
    EXPECT_EQ(s2.changed[i].first, s.changed[i].first);
    EXPECT_EQ(s2.changed[i].second, s.changed[i].second);
  }
}

TEST(WireMessages, RequestRoundTripsBitExact) {
  WireRequest rq = sample_request(42);
  WireRequest r2 = decode_request(encode_request(rq));
  EXPECT_EQ(r2.req_id, rq.req_id);
  EXPECT_EQ(r2.job.widx, rq.job.widx);
  EXPECT_EQ(r2.job.key, rq.job.key);
  EXPECT_EQ(r2.job.window.x0, rq.job.window.x0);
  EXPECT_EQ(r2.job.window.x1, rq.job.window.x1);
  EXPECT_EQ(r2.job.window.row0, rq.job.window.row0);
  EXPECT_EQ(r2.job.window.row1, rq.job.window.row1);
  EXPECT_EQ(r2.job.movable, rq.job.movable);
  EXPECT_EQ(r2.job.lx, rq.job.lx);
  EXPECT_EQ(r2.job.ly, rq.job.ly);
  EXPECT_EQ(r2.job.allow_move, rq.job.allow_move);
  EXPECT_EQ(r2.job.allow_flip, rq.job.allow_flip);
  EXPECT_EQ(r2.job.rounding_fallback, rq.job.rounding_fallback);
  // Bitwise double comparisons on purpose: the solve path is only
  // bit-identical across processes if its inputs are.
  EXPECT_EQ(r2.job.params.alpha, rq.job.params.alpha);
  EXPECT_EQ(r2.job.params.net_beta, rq.job.params.net_beta);
  EXPECT_EQ(r2.job.mip.max_nodes, rq.job.mip.max_nodes);
  EXPECT_EQ(r2.job.mip.time_limit_sec, rq.job.mip.time_limit_sec);
  EXPECT_EQ(r2.job.mip.lp_options.time_limit_sec,
            rq.job.mip.lp_options.time_limit_sec);
  EXPECT_EQ(r2.greedy_fallback, rq.greedy_fallback);
  for (int i = 0; i < fault::kNumSites; ++i) {
    EXPECT_EQ(r2.faults.rate[i], rq.faults.rate[i]) << "site " << i;
  }
  EXPECT_EQ(r2.faults.seed, rq.faults.seed);
  EXPECT_EQ(r2.expected_sig.a, rq.expected_sig.a);
  EXPECT_EQ(r2.expected_sig.b, rq.expected_sig.b);
}

TEST(WireMessages, ReplyRoundTripsBitExactIncludingNaN) {
  WireReply rp = sample_reply(7);
  rp.result.objective = std::numeric_limits<double>::quiet_NaN();
  WireReply r2 = decode_reply(encode_reply(rp));
  EXPECT_EQ(r2.req_id, rp.req_id);
  EXPECT_EQ(r2.result.cells, rp.result.cells);
  EXPECT_EQ(r2.result.has_solution, rp.result.has_solution);
  EXPECT_EQ(r2.result.usable, rp.result.usable);
  ASSERT_EQ(r2.result.placements.size(), rp.result.placements.size());
  for (std::size_t i = 0; i < rp.result.placements.size(); ++i) {
    EXPECT_EQ(r2.result.placements[i], rp.result.placements[i]);
  }
  EXPECT_EQ(r2.result.warm_obj, rp.result.warm_obj);
  // NaN must survive the trip as NaN (IEEE-754 bit-pattern transport).
  EXPECT_TRUE(std::isnan(r2.result.objective));
  EXPECT_EQ(r2.result.nodes, rp.result.nodes);
  EXPECT_EQ(r2.result.lp_iterations, rp.result.lp_iterations);
  EXPECT_EQ(r2.result.dual_pivots, rp.result.dual_pivots);

  WireReply failed;
  failed.req_id = 9;
  failed.result.failed = true;
  failed.result.error = "injected fault: build_throw";
  failed.result.faults = 1;
  WireReply f2 = decode_reply(encode_reply(failed));
  EXPECT_TRUE(f2.result.failed);
  EXPECT_EQ(f2.result.error, failed.result.error);
  EXPECT_EQ(f2.result.faults, 1);
}

void expect_same_result(const WindowSolveResult& a,
                        const WindowSolveResult& b) {
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.usable, b.usable);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.warm_obj, b.warm_obj);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.rc_fixed, b.rc_fixed);
}

TEST(WireMessages, BatchAndCacheFramesRoundTrip) {
  WireRequestBatch rqb;
  rqb.requests = {sample_request(5), sample_request(6)};
  WireRequestBatch rqb2 = decode_request_batch(encode_request_batch(rqb));
  ASSERT_EQ(rqb2.requests.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rqb2.requests[i].req_id, rqb.requests[i].req_id);
    EXPECT_EQ(rqb2.requests[i].job.movable, rqb.requests[i].job.movable);
    EXPECT_EQ(rqb2.requests[i].expected_sig.a,
              rqb.requests[i].expected_sig.a);
  }

  // Replies and an error entry: every entry's own req_id must survive,
  // since the coordinator resolves entries one by one.
  WireReplyBatch rb = sample_reply_batch(8);
  WireReplyBatch rb2 = decode_reply_batch(encode_reply_batch(rb));
  ASSERT_EQ(rb2.entries.size(), 3u);
  EXPECT_FALSE(rb2.entries[0].is_error);
  EXPECT_EQ(rb2.entries[0].reply.req_id, rb.entries[0].reply.req_id);
  expect_same_result(rb2.entries[0].reply.result, rb.entries[0].reply.result);
  EXPECT_FALSE(rb2.entries[1].is_error);
  EXPECT_EQ(rb2.entries[1].reply.req_id, rb.entries[1].reply.req_id);
  expect_same_result(rb2.entries[1].reply.result, rb.entries[1].reply.result);
  EXPECT_TRUE(rb2.entries[2].is_error);
  EXPECT_EQ(rb2.entries[2].error.req_id, 41u);
  EXPECT_EQ(rb2.entries[2].error.code, ErrorCode::kDesync);
  EXPECT_EQ(rb2.entries[2].error.message, rb.entries[2].error.message);

  // Zero-entry batches are well-formed on the wire (the worker rejects an
  // empty request batch and never sends an empty reply batch, but the
  // codec must not care).
  EXPECT_TRUE(decode_request_batch(encode_request_batch({})).requests.empty());
  EXPECT_TRUE(decode_reply_batch(encode_reply_batch({})).entries.empty());
}

TEST(WireDesign, ReplicaRoundTripsToIdenticalDigest) {
  for (CellArch arch : {CellArch::kClosedM1, CellArch::kOpenM1}) {
    Design d = placed_design(11, arch);
    std::vector<std::uint8_t> bytes = encode_design(d);
    Design r = decode_design(bytes);

    ASSERT_EQ(r.netlist().num_instances(), d.netlist().num_instances());
    for (int i = 0; i < d.netlist().num_instances(); ++i) {
      EXPECT_EQ(r.placement(i), d.placement(i)) << "instance " << i;
    }
    EXPECT_EQ(design_digest(r), design_digest(d));
    // Re-encoding the replica must be byte-identical: the snapshot is a
    // fixpoint, so digest comparisons across processes are meaningful.
    EXPECT_EQ(encode_design(r), bytes);
  }
}

TEST(WireDesign, ReplicaSolvesWindowBitIdentically) {
  Design d = placed_design(23, CellArch::kClosedM1);
  Design r = decode_design(encode_design(d));

  WindowGrid grid = partition_windows(d, 0, 0, 20, 3);
  int widx = -1;
  for (std::size_t w = 0; w < grid.windows.size(); ++w) {
    if (grid.movable[w].size() >= 2) {
      widx = static_cast<int>(w);
      break;
    }
  }
  ASSERT_GE(widx, 0) << "no window with movable cells";

  WindowSolveJob job;
  job.widx = widx;
  job.key = 123;
  job.window = grid.windows[widx];
  job.movable = grid.movable[widx];
  job.params.alpha = 25.0;
  job.mip.max_nodes = 40;
  job.mip.time_limit_sec = 3600;
  job.mip.lp_options.time_limit_sec = 0;

  WindowSolveResult a = solve_window(d, job, nullptr);
  WindowSolveResult b = solve_window(r, job, nullptr);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.usable, b.usable);
  EXPECT_EQ(a.cells, b.cells);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    EXPECT_EQ(a.placements[i], b.placements[i]) << "cell " << i;
  }
  EXPECT_EQ(a.warm_obj, b.warm_obj);
  EXPECT_EQ(a.objective, b.objective);
}

/// Corruption fuzz: any single-byte flip or truncation of a valid frame
/// must either fail with WireError or (for payload-region flips that keep
/// a decodable value) succeed — anything else (crash, hang, non-Wire
/// exception) fails the test. ASan (the `faults` binary) additionally
/// proves no out-of-bounds reads.
TEST(WireFuzz, MutatedFramesNeverEscapeWireError) {
  std::vector<std::vector<std::uint8_t>> corpus;
  WireRequestBatch rqb;
  rqb.requests = {sample_request(1), sample_request(11)};
  corpus.push_back(
      encode_frame(MsgType::kRequestBatch, encode_request_batch(rqb)));
  corpus.push_back(encode_frame(MsgType::kReplyBatch,
                                encode_reply_batch(sample_reply_batch(2))));
  WireSync sync;
  sync.changed = {{0, Placement{1, 1, false}}};
  corpus.push_back(encode_frame(MsgType::kSync, encode_sync(sync)));

  Rng rng(2024);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::uint8_t> buf =
        corpus[rng.uniform(corpus.size())];
    if (rng.chance(0.5)) {
      buf.resize(rng.uniform(buf.size() + 1));  // truncate
    } else {
      buf[rng.uniform(buf.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));  // bit flip
    }
    try {
      std::optional<Frame> f = extract_frame(buf);
      if (!f) continue;  // truncation read as "need more bytes" — fine
      // A frame that still checksums (flip before the payload start is
      // caught above; a flip that lands in a dead zone cannot — the
      // checksum covers the payload only) must decode or throw WireError.
      switch (f->type) {
        case MsgType::kRequestBatch:
          decode_request_batch(f->payload);
          break;
        case MsgType::kReplyBatch:
          decode_reply_batch(f->payload);
          break;
        case MsgType::kSync:
          decode_sync(f->payload);
          break;
        default:
          break;
      }
    } catch (const WireError&) {
      // expected for most mutations
    }
  }
}

/// Payload-level fuzz (no frame checksum shield): decoders facing flipped
/// or truncated payloads directly must still contain the damage.
TEST(WireFuzz, MutatedPayloadsNeverEscapeWireError) {
  Design d = placed_design(5, CellArch::kClosedM1);
  std::vector<std::uint8_t> design_bytes = encode_design(d);
  std::vector<std::uint8_t> request_bytes =
      encode_request(sample_request(3));
  std::vector<std::uint8_t> reply_bytes = encode_reply(sample_reply(4));
  WireRequestBatch rqb;
  rqb.requests = {sample_request(8), sample_request(9)};
  std::vector<std::uint8_t> request_batch_bytes = encode_request_batch(rqb);
  std::vector<std::uint8_t> reply_batch_bytes =
      encode_reply_batch(sample_reply_batch(10));

  Rng rng(77);
  auto mutate = [&rng](std::vector<std::uint8_t> b) {
    if (rng.chance(0.5)) {
      b.resize(rng.uniform(b.size() + 1));
    } else {
      b[rng.uniform(b.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    return b;
  };
  for (int iter = 0; iter < 1000; ++iter) {
    try {
      decode_request(mutate(request_bytes));
    } catch (const WireError&) {
    }
    try {
      decode_reply(mutate(reply_bytes));
    } catch (const WireError&) {
    }
    try {
      decode_design(mutate(design_bytes));
    } catch (const WireError&) {
    }
    try {
      decode_request_batch(mutate(request_batch_bytes));
    } catch (const WireError&) {
    }
    try {
      decode_reply_batch(mutate(reply_batch_bytes));
    } catch (const WireError&) {
    }
  }
}

}  // namespace
}  // namespace vm1::dist
