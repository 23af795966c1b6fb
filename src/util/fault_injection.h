/// \file fault_injection.h
/// Deterministic, seed-keyed fault injection for the window-solve path.
///
/// A production DistOpt run solves up to millions of window MILPs; the
/// guardrails around that path (legality audit, fallback cascade,
/// cancellation — see DESIGN.md "Window-solve guardrails") are only trustworthy
/// if every degradation branch is exercised regularly. This module lets
/// tests (and brave operators) force failures at well-defined sites:
///
///   kBuildThrow     window MILP construction throws
///   kLpTimeout      the window's LP/MIP wall-clock budget collapses to 0
///   kNoSolution     the branch-and-bound result is replaced by kNoSolution
///   kNanObjective   the reported MIP objective is replaced by a quiet NaN
///   kApplyThrow     applying the window solution throws mid-mutation
///
/// and, for the distributed backend (src/dist — see DESIGN.md "Distributed
/// window solving"), seven transport-layer drills keyed by the same window
/// key so the retry/fallback matrix replays deterministically:
///
///   kWorkerKill      the worker process _exit()s mid-request (crash)
///   kReplyDrop       the worker solves but never sends the reply (hang)
///   kReplyCorrupt    the reply frame's payload is bit-flipped in transit
///   kConnectTimeout  dispatching the request to a worker fails outright
///   kConnectRefused  the worker's transport connection is refused/torn
///                    down at dispatch (the peer must be re-established)
///   kPartition       the connection dies mid-frame: half the request is
///                    written, then the link is severed
///   kSlowLoris       the worker sends a few reply bytes then stalls with
///                    the connection held open (incomplete frame forever)
///
/// Whether a site fires for a given window is a pure function of
/// (config seed, site, window key): runs are reproducible bit-for-bit, do
/// not depend on thread count or scheduling, and the same spec string
/// replays the same faults on any platform.
///
/// Enable via the VM1_FAULTS environment variable, e.g.
///   VM1_FAULTS="rate=0.3,seed=42"             # all sites at 30%
///   VM1_FAULTS="no_solution=0.5,apply_throw=0.1"
/// or programmatically with set_config() (tests).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace vm1::fault {

enum class Site : int {
  kBuildThrow = 0,
  kLpTimeout,
  kNoSolution,
  kNanObjective,
  kApplyThrow,
  kWorkerKill,
  kReplyDrop,
  kReplyCorrupt,
  kConnectTimeout,
  kConnectRefused,
  kPartition,
  kSlowLoris,
};
inline constexpr int kNumSites = 12;

const char* to_string(Site s);

struct Config {
  double rate[kNumSites] = {};  ///< fire probability per site
  std::uint64_t seed = 0x5eedbea7ULL;

  bool enabled() const {
    for (double r : rate) {
      if (r > 0) return true;
    }
    return false;
  }
};

/// Exception type used by throwing fault sites, so handlers can tell an
/// injected drill from a genuine error when logging.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Parses a spec of comma-separated key=value entries. Keys: `rate` (sets
/// every site), one of the site names (`build_throw`, `lp_timeout`,
/// `no_solution`, `nan_objective`, `apply_throw`, `worker_kill`,
/// `reply_drop`, `reply_corrupt`, `connect_timeout`, `connect_refused`,
/// `partition`, `slow_loris`), and `seed`. Rates
/// must be in [0, 1]. Throws std::invalid_argument on malformed input.
Config parse_spec(const std::string& spec);

/// Process-wide active config. First call reads $VM1_FAULTS (empty/unset
/// => all rates zero). Not synchronized against concurrent should_fire()
/// calls: only (re)configure while no optimizer pass is running.
const Config& config();
void set_config(const Config& c);

/// Deterministic Bernoulli draw: fires iff
/// hash(config().seed, site, key) maps below the site's rate.
bool should_fire(Site s, std::uint64_t key);

/// splitmix64-based hash combine used for window keys; stable across
/// platforms so fault schedules are portable.
std::uint64_t mix(std::uint64_t h, std::uint64_t v);

}  // namespace vm1::fault
