/// \file worker.h
/// Worker side of the distributed window-solve service: a blocking
/// request loop over one Unix-domain socket, run by the `vm1_worker`
/// executable (apps/vm1_worker.cpp) after fork/exec from the coordinator.
///
/// Protocol (all frames dist/wire.h):
///   1. worker sends kHello once (skipped for TCP attach, where the hello
///      already went out authenticated during the tcp_attach handshake);
///   2. coordinator sends kBindDesign (full replica) before the first
///      request, and again whenever it believes the replica is stale;
///   3. kRequestBatch -> solve_window on the replica for each window in
///      it (the coordinator sends one) -> one kReplyBatch whose entries
///      are replies or typed errors (kDesync when the recomputed window
///      signature disagrees with the request's expected signature — the
///      replica missed a sync; kBadRequest when the request names an
///      instance or a window outside the replica);
///   4. kSync applies placement deltas (one-way, no reply);
///   5. kPing -> kPong echoing the sequence number (heartbeat);
///   6. kShutdown (or EOF) ends the loop.
/// A frame the worker cannot use at all is answered with a top-level
/// kError.
///
/// run_worker is also callable in-process from tests: it owns no global
/// state besides the fault config the requests carry.
#pragma once

#include <vector>

#include "dist/wire.h"

namespace vm1::dist {

/// Serves requests on `fd` until kShutdown/EOF (returns 0), an
/// unrecoverable stream error (returns 2), or a dead peer (returns 1).
int run_worker(int fd, bool send_hello = true);

/// The signature a worker recomputes for `rq` over its replica (under the
/// current fault::config(), which the worker sets from the request first):
/// window_signature with the request's movable cells marked as the
/// window's own on `marks` for the call. `marks` is sized for the replica
/// and all -1 on entry and on return; every movable id must be in range.
/// Equals dist_opt's signature of the same window on the same design.
WindowSig replica_signature(const Design& replica, const WireRequest& rq,
                            std::vector<int>& marks);

}  // namespace vm1::dist
