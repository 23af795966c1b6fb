/// \file vm1_serve.cpp
/// Long-lived placement service (see DESIGN.md "Placement service"): one
/// process accepting concurrent design jobs over TCP and multiplexing them
/// onto a shared worker fleet under per-tenant weighted fair share.
///
///   vm1_serve --port=5117 --workers=2
///             --tenant=gold:3:8 --tenant=bronze:1:4
///
/// Clients talk the kSubmitJob/kJobStatus/kJobResult/kCancelJob protocol
/// (apps/vm1_submit.cpp is the reference client), authenticated by the
/// same challenge/HMAC handshake as the worker fleet; the shared secret
/// comes from --secret or $VM1_DIST_SECRET.
///
/// SIGINT/SIGTERM drain gracefully: running jobs finish, queued jobs are
/// cancelled, then the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/solve_cache.h"
#include "cache/store.h"
#include "dist/coordinator.h"
#include "svc/service.h"

namespace {

constexpr const char* kUsage =
    "usage: vm1_serve [options]\n"
    "  --host=ADDR          listen address           (default 127.0.0.1)\n"
    "  --port=N             listen port, 0=ephemeral (default 0)\n"
    "  --secret=S           client/worker auth secret\n"
    "                       (default $VM1_DIST_SECRET)\n"
    "  --tenant=NAME:W:Q    add a tenant: fair-share weight W, admission\n"
    "                       quota Q jobs (repeatable; default default:1:8)\n"
    "  --workers=N          shared worker fleet size; 0 = solve in-process\n"
    "                       with threads instead      (default 2)\n"
    "  --max-running=N      concurrent jobs           (default 2)\n"
    "  --max-queue=N        queued-job bound          (default 64)\n"
    "  --job-threads=N      threads per job when --workers=0 (default 1)\n"
    "  --cache=DIR          persistent solve cache shared by all tenants;\n"
    "                       resubmitted designs are served from the store\n"
    "                       (default: a bounded in-memory cache)\n";

vm1::svc::Service* g_service = nullptr;

void on_signal(int) {
  if (g_service) g_service->stop();
}

bool parse_tenant(const std::string& spec, vm1::svc::TenantConfig& out) {
  std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  std::size_t c2 = spec.find(':', c1 + 1);
  if (c2 == std::string::npos || c2 + 1 >= spec.size()) return false;
  out.name = spec.substr(0, c1);
  char* end = nullptr;
  out.weight = std::strtod(spec.c_str() + c1 + 1, &end);
  if (end != spec.c_str() + c2) return false;
  out.max_jobs = std::atoi(spec.c_str() + c2 + 1);
  return out.weight > 0 && out.max_jobs > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string secret;
  int port = 0;
  int workers = 2;
  int max_running = 2;
  int max_queue = 64;
  int job_threads = 1;
  std::string cache_dir;
  std::vector<vm1::svc::TenantConfig> tenants;

  auto value = [](const char* arg, const char* flag) -> const char* {
    std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = value(argv[i], "--host="))) {
      host = v;
    } else if ((v = value(argv[i], "--port="))) {
      port = std::atoi(v);
    } else if ((v = value(argv[i], "--secret="))) {
      secret = v;
    } else if ((v = value(argv[i], "--workers="))) {
      workers = std::atoi(v);
    } else if ((v = value(argv[i], "--max-running="))) {
      max_running = std::atoi(v);
    } else if ((v = value(argv[i], "--max-queue="))) {
      max_queue = std::atoi(v);
    } else if ((v = value(argv[i], "--job-threads="))) {
      job_threads = std::atoi(v);
    } else if ((v = value(argv[i], "--cache="))) {
      cache_dir = v;
    } else if ((v = value(argv[i], "--tenant="))) {
      vm1::svc::TenantConfig t;
      if (!parse_tenant(v, t)) {
        std::fprintf(stderr, "bad --tenant spec '%s' (want NAME:W:Q)\n%s", v,
                     kUsage);
        return 64;
      }
      tenants.push_back(std::move(t));
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n%s", argv[i], kUsage);
      return 64;
    }
  }
  if (tenants.empty()) {
    tenants.push_back(vm1::svc::TenantConfig{"default", 1.0, 8});
  }

  try {
    // Every tenant's incremental jobs share one solve cache, so a
    // resubmitted window is replayed rather than solved again.
    std::optional<vm1::cache::CacheStore> store;
    std::unique_ptr<vm1::CacheBackend> cache;
    if (!cache_dir.empty()) {
      vm1::cache::StoreOptions cs;
      cs.dir = cache_dir;
      cs.epoch = vm1::cache::default_epoch();
      store.emplace(cs);
      cache = std::make_unique<vm1::cache::PersistentCache>(&*store);
      std::printf("vm1_serve: solve cache at %s (%zu entries)\n",
                  cache_dir.c_str(), store->entries());
    } else {
      cache = std::make_unique<vm1::cache::MemoryCache>();
    }

    std::optional<vm1::dist::Coordinator> coord;
    if (workers > 0) {
      vm1::dist::CoordinatorOptions co;
      co.num_workers = workers;
      coord.emplace(co);
    }

    vm1::svc::JobManagerOptions jo;
    jo.tenants = tenants;
    jo.max_running = max_running;
    jo.max_queue_depth = max_queue;
    jo.coordinator = coord ? &*coord : nullptr;
    jo.cache = cache.get();
    jo.job_threads = static_cast<unsigned>(job_threads > 0 ? job_threads : 1);
    vm1::svc::JobManager manager(jo);

    vm1::svc::ServiceOptions so;
    so.host = host;
    so.port = port;
    so.secret = secret;
    vm1::svc::Service service(so, &manager);
    g_service = &service;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    // Machine-parseable bind line (port=0 resolves to an ephemeral port).
    std::printf("vm1_serve: ready on %s:%d\n", host.c_str(), service.port());
    std::fflush(stdout);

    service.serve();
    g_service = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vm1_serve: %s\n", e.what());
    return 1;
  }
}
