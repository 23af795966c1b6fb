/// \file vm1_worker.cpp
/// Window-solve worker process (see DESIGN.md "Distributed window
/// solving"). Two attach modes:
///
///   --fd=N               socketpair end inherited from a fork/exec'ing
///                        dist::Coordinator (the original PR 5 path);
///   --connect=HOST:PORT  TCP attach to a coordinator's listener, with
///                        bounded-backoff connect retries and the
///                        nonce/HMAC auth handshake (dist/tcp.h). The
///                        shared secret comes from $VM1_DIST_SECRET.
///
/// Solves the windows of kRequestBatch frames until kShutdown/EOF.
///
/// Exit codes: 0 orderly shutdown, 1 dead peer, 2 unrecoverable stream
/// corruption, 3 injected worker_kill drill, 64 bad usage, 65 connect
/// failure (after all retry attempts), 127 exec failure (set by the
/// spawning parent).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dist/tcp.h"
#include "dist/worker.h"

namespace {

constexpr const char* kUsage =
    "usage: vm1_worker --fd=N | --connect=HOST:PORT [--attempts=K]\n"
    "Not a standalone tool: it attaches to a dist::Coordinator\n"
    "(dist/coordinator.h) — over an inherited socketpair (--fd) or a TCP\n"
    "listener (--connect; auth secret from $VM1_DIST_SECRET).\n";

}  // namespace

int main(int argc, char** argv) {
  int fd = -1;
  std::string connect_spec;
  int attempts = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fd=", 5) == 0) {
      char* end = nullptr;
      fd = static_cast<int>(std::strtol(argv[i] + 5, &end, 10));
      if (end == argv[i] + 5 || *end != '\0') fd = -1;
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect_spec = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--attempts=", 11) == 0) {
      attempts = std::atoi(argv[i] + 11);
    }
  }

  if (!connect_spec.empty()) {
    std::size_t colon = connect_spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == connect_spec.size()) {
      std::fprintf(stderr, "%s", kUsage);
      return 64;
    }
    std::string host = connect_spec.substr(0, colon);
    int port = std::atoi(connect_spec.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      std::fprintf(stderr, "%s", kUsage);
      return 64;
    }
    vm1::dist::TcpConnectOptions opts;
    if (attempts > 0) opts.max_attempts = attempts;
    fd = vm1::dist::tcp_attach(host, port, opts);
    if (fd < 0) return 65;
    // The hello already went out (authenticated) during the handshake.
    return vm1::dist::run_worker(fd, /*send_hello=*/false);
  }

  if (fd < 0) {
    std::fprintf(stderr, "%s", kUsage);
    return 64;
  }
  return vm1::dist::run_worker(fd);
}
