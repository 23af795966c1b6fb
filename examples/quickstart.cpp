// Quickstart: build a small ClosedM1 design, run the vertical-M1
// routing-aware detailed placement optimization, and print before/after
// metrics.
//
//   $ ./quickstart [design] [alpha_nm] [--backend=threads|processes]
//                  [--workers=N] [--transport=socketpair|tcp] [--port=P]
//                  [--cache=DIR]
//
// design: tiny | m0 | aes | jpeg | vga   (default tiny)
// alpha_nm: paper-style alpha in nm HPWL units (default 1200)
// --backend=processes solves windows in vm1_worker subprocesses over the
// src/dist wire protocol (bit-identical results to threads); --workers
// sets the subprocess count (default 2).
// --transport=tcp listens on 127.0.0.1:P (--port, default ephemeral) and
// the workers attach over loopback TCP with the HMAC handshake ($VM1_DIST_SECRET
// if set). Implies --backend=processes.
// --cache=DIR opens (or creates) a persistent solve cache there; a second
// run with the same DIR serves its window solves from the store,
// bit-identical to solving. The summary line reports hits/stores.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "cache/solve_cache.h"
#include "cache/store.h"
#include "core/flow.h"
#include "util/stats.h"

using namespace vm1;

int main(int argc, char** argv) {
  FlowOptions flow;
  flow.arch = CellArch::kClosedM1;
  double alpha_nm = 1200.0;
  std::string cache_dir;
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      std::string b = argv[i] + 10;
      if (b == "processes") {
        flow.vm1.backend = DistBackend::kProcesses;
      } else if (b != "threads") {
        std::fprintf(stderr, "unknown backend '%s' (threads|processes)\n",
                     b.c_str());
        return 64;
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      flow.vm1.dist_workers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      std::string t = argv[i] + 12;
      if (t == "tcp") {
        flow.vm1.backend = DistBackend::kProcesses;
        flow.vm1.dist_transport = DistTransport::kTcp;
      } else if (t != "socketpair") {
        std::fprintf(stderr, "unknown transport '%s' (socketpair|tcp)\n",
                     t.c_str());
        return 64;
      }
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      flow.vm1.dist_tcp_port = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
      cache_dir = argv[i] + 8;
    } else if (pos == 0) {
      flow.design_name = argv[i];
      ++pos;
    } else {
      alpha_nm = std::stod(argv[i]);
      ++pos;
    }
  }
  if (flow.design_name.empty()) flow.design_name = "tiny";
  flow.vm1.params.alpha = paper_alpha(alpha_nm);
  flow.vm1.sequence = {ParamSet{20, 0, 4, 1}};  // the paper's best sequence

  std::optional<cache::CacheStore> store;
  std::optional<cache::PersistentCache> pcache;
  if (!cache_dir.empty()) {
    cache::StoreOptions so;
    so.dir = cache_dir;
    so.epoch = cache::default_epoch();
    try {
      store.emplace(so);
    } catch (const cache::CacheError& e) {
      std::fprintf(stderr, "cache: cannot open '%s': %s\n", cache_dir.c_str(),
                   e.what());
      return 66;
    }
    pcache.emplace(&*store);
    flow.vm1.cache = &*pcache;
  }

  std::printf("OpenVM1 quickstart: design=%s arch=%s alpha=%.0fnm "
              "backend=%s%s\n",
              flow.design_name.c_str(), to_string(flow.arch), alpha_nm,
              flow.vm1.backend == DistBackend::kProcesses ? "processes"
                                                          : "threads",
              flow.vm1.dist_transport == DistTransport::kTcp ? " (tcp)"
                                                             : "");

  FlowResult r = run_flow(flow);

  std::printf("\n%-22s %12s %12s %8s\n", "metric", "init", "final", "delta%");
  auto row = [](const char* name, double a, double b) {
    std::printf("%-22s %12.0f %12.0f %8s\n", name, a, b,
                fmt_delta(a, b).c_str());
  };
  row("#dM1 (routed)", r.init.route.num_dm1, r.final.route.num_dm1);
  row("#alignments", r.init.objective.alignments,
      r.final.objective.alignments);
  row("M1 WL (dbu)", r.init.route.m1_wl_dbu(), r.final.route.m1_wl_dbu());
  row("#via12", r.init.route.via12, r.final.route.via12);
  row("HPWL (dbu)", r.init.hpwl, r.final.hpwl);
  row("RWL (dbu)", r.init.route.rwl_dbu, r.final.route.rwl_dbu);
  row("#DRV", r.init.route.drv, r.final.route.drv);
  std::printf("%-22s %12.3f %12.3f %8s\n", "power (mW)",
              r.init.power.total_mw(), r.final.power.total_mw(),
              fmt_delta(r.init.power.total_mw(), r.final.power.total_mw(), 2)
                  .c_str());
  std::printf("%-22s %12.3f %12.3f\n", "WNS", r.init.sta.wns,
              r.final.sta.wns);
  std::printf("\noptimizer: %d DistOpt pairs, %d windows, %ld B&B nodes, "
              "%.1fs\n",
              r.opt.outer_iterations, r.opt.windows, r.opt.milp_nodes,
              r.opt.seconds);
  if (flow.vm1.backend == DistBackend::kProcesses) {
    std::printf("dist: %ld RPCs (%ld retries, %ld timeouts, %ld local "
                "fallbacks, %ld restarts), %.1f KB sent / %.1f KB received\n",
                r.opt.remote.replies, r.opt.remote.retries,
                r.opt.remote.timeouts, r.opt.remote.local_fallbacks,
                r.opt.remote.worker_restarts, r.opt.remote.bytes_sent / 1024.0,
                r.opt.remote.bytes_received / 1024.0);
  }
  if (!cache_dir.empty()) {
    std::printf("cache: %ld hits, %ld stores, %ld windows served remotely "
                "(%s)\n",
                r.opt.cache_hits, r.opt.cache_stores, r.opt.cached_remote,
                cache_dir.c_str());
  }
  return 0;
}
